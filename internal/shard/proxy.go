package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"lipstick/internal/faultinject"
	"lipstick/internal/serve"
)

// Proxy is the shard router: every name-addressed /v1/* endpoint (ingest,
// snapshot queries, exports, replica reads) forwards to the consistent-
// hash owner of its graph name; registry-wide endpoints (/v1/snapshots,
// /v1/stats, /v1/cluster) fan out and merge. Sessions are sticky: a
// session is created on its snapshot's owner and later requests follow
// the learned id → node affinity. One shared transport keeps per-node
// connections alive across requests, and 429/503 node responses are
// retried with the ingest client's jittered exponential backoff before
// the rejection is passed through.
type Proxy struct {
	ring       *Ring
	client     *http.Client
	maxRetries int
	retryBase  time.Duration
	// sleep is the backoff clock; tests inject a recorder. nil = time.Sleep.
	sleep func(time.Duration)

	mu       sync.Mutex
	sessions map[string]string // session id -> owning node; guarded by mu

	// Failover routing overlay: the ring still names the nominal owner,
	// routes overrides where its traffic actually goes. Written by the
	// detector/coordinator callbacks, read per forward attempt.
	routesMu sync.Mutex
	routes   map[string]*routeInfo // nominal node -> override; guarded by routesMu

	detector *Detector // read-only after SetDetector; /v1/cluster reporting
}

// routeInfo is one nominal node's failover routing state.
type routeInfo struct {
	suspect  bool   // degraded mode: reads -> follower, writes -> 503
	follower string // designated follower for degraded reads and promotion
	target   string // promoted replacement; "" = route to the node itself
	gen      uint64 // generation stamped on writes once promoted
}

// RouteInfo is the exported /v1/cluster view of one failover route.
type RouteInfo struct {
	Suspect    bool   `json:"suspect,omitempty"`
	Follower   string `json:"follower,omitempty"`
	Target     string `json:"target,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
}

// ProxyOption configures a Proxy.
type ProxyOption func(*Proxy)

// WithRetry overrides the forward retry policy (maxRetries < 0 disables
// retries; base <= 0 keeps the ingest client's default).
func WithRetry(maxRetries int, base time.Duration) ProxyOption {
	return func(p *Proxy) {
		p.maxRetries = maxRetries
		if base > 0 {
			p.retryBase = base
		}
	}
}

// NewProxy builds a shard router over the node base URLs (e.g.
// "http://10.0.0.1:8080"). Trailing slashes are trimmed so routing and
// ring hashing see one canonical form per node.
func NewProxy(nodes []string, opts ...ProxyOption) (*Proxy, error) {
	canon := make([]string, len(nodes))
	for i, n := range nodes {
		canon[i] = strings.TrimRight(strings.TrimSpace(n), "/")
		if canon[i] == "" {
			return nil, fmt.Errorf("shard: empty node URL")
		}
	}
	ring, err := NewRing(canon, 0)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		ring: ring,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: faultinject.Transport("proxy.transport", &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			}),
		},
		maxRetries: serve.DefaultMaxRetries,
		retryBase:  serve.DefaultRetryBase,
		sessions:   make(map[string]string),
		routes:     make(map[string]*routeInfo),
	}
	for _, opt := range opts {
		opt(p)
	}
	return p, nil
}

// Ring exposes the proxy's hash ring (routing inspection, tests).
func (p *Proxy) Ring() *Ring { return p.ring }

// SetDetector attaches the failure detector whose states /v1/cluster
// reports. Call before the handler serves traffic.
func (p *Proxy) SetDetector(d *Detector) { p.detector = d }

// SetFailover designates node's failover follower: degraded reads go
// there while node is suspect, and the coordinator promotes it when
// node is declared down.
func (p *Proxy) SetFailover(node, follower string) {
	p.routesMu.Lock()
	defer p.routesMu.Unlock()
	p.routeLocked(node).follower = follower
}

// MarkSuspect flips node's degraded mode: while suspect (and not yet
// promoted past), its writes answer 503 + Retry-After and its reads
// route to the designated follower.
func (p *Proxy) MarkSuspect(node string, on bool) {
	p.routesMu.Lock()
	defer p.routesMu.Unlock()
	p.routeLocked(node).suspect = on
}

// PromoteRoute redirects node's traffic to target, stamping writes with
// the promotion generation so a zombie ex-primary is fenced. Clears the
// suspect window — the promoted target accepts writes.
func (p *Proxy) PromoteRoute(node, target string, gen uint64) {
	p.routesMu.Lock()
	defer p.routesMu.Unlock()
	ri := p.routeLocked(node)
	ri.target, ri.gen, ri.suspect = target, gen, false
}

// Routes snapshots the failover routing overlay for /v1/cluster.
func (p *Proxy) Routes() map[string]RouteInfo {
	p.routesMu.Lock()
	defer p.routesMu.Unlock()
	out := make(map[string]RouteInfo, len(p.routes))
	for node, ri := range p.routes {
		out[node] = RouteInfo{Suspect: ri.suspect, Follower: ri.follower, Target: ri.target, Generation: ri.gen}
	}
	return out
}

// routeLocked returns (creating if needed) node's override entry.
// Callers hold routesMu.
func (p *Proxy) routeLocked(node string) *routeInfo {
	ri := p.routes[node]
	if ri == nil {
		ri = &routeInfo{}
		p.routes[node] = ri
	}
	return ri
}

// resolve reads node's effective route for one forward attempt.
func (p *Proxy) resolve(node string) routeInfo {
	p.routesMu.Lock()
	defer p.routesMu.Unlock()
	if ri := p.routes[node]; ri != nil {
		return *ri
	}
	return routeInfo{}
}

// maxProxyBody caps a buffered request body; matches the node's own
// ingest cap, so the proxy never buffers more than a node would accept.
const maxProxyBody = 32 << 20

// Handler returns the proxy's HTTP interface. Unknown /v1 endpoints that
// need a graph name (the flat single-node conveniences like /v1/info)
// answer 400 with guidance — a multi-node cluster has no "default"
// graph.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "proxy": true, "nodes": len(p.ring.Nodes()),
		})
	})
	mux.HandleFunc("GET /v1/cluster", p.handleCluster)
	mux.HandleFunc("GET /v1/stats", p.handleStats)
	mux.HandleFunc("GET /v1/snapshots", p.handleSnapshotList)

	// Name-routed: the graph name picks the shard, the request passes
	// through verbatim.
	byName := func(w http.ResponseWriter, r *http.Request) {
		p.forward(w, r, p.ring.Node(r.PathValue("name")))
	}
	mux.HandleFunc("/v1/ingest/{name}", byName)
	mux.HandleFunc("/v1/ingest/{name}/{rest...}", byName)
	mux.HandleFunc("/v1/snapshots/{name}/{rest...}", byName)
	mux.HandleFunc("/v1/replica/{name}/{rest...}", byName)

	// Sessions: create on the snapshot's owner, then follow the id.
	mux.HandleFunc("POST /v1/sessions", p.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", p.handleSessionList)
	mux.HandleFunc("/v1/sessions/{id}", p.handleSessionByID)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", p.handleSessionByID)

	// The flat conveniences cannot be routed without a name.
	flat := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": "the cluster proxy routes by graph name: use /v1/snapshots/{name}/" +
				strings.TrimPrefix(r.URL.Path, "/v1/"),
		})
	}
	for _, ep := range []string{"info", "outputs", "zoom", "delete", "subgraph", "lineage", "find", "dot", "opm", "json"} {
		mux.HandleFunc("GET /v1/"+ep, flat)
	}

	return mux
}

// maxProxyRetryAfter caps how long one node-supplied Retry-After hint
// stalls a forward attempt; matches the jittered schedule's own cap.
const maxProxyRetryAfter = 2 * time.Second

// forward proxies one request to node, retrying 429/503 responses with
// jittered exponential backoff (bodies are buffered, and ingestion is
// idempotent by sequence, so a retry is safe even if the rejected
// attempt partially landed). A node Retry-After hint overrides the
// jitter (capped), and the backoff aborts if the client's request
// context is canceled. The route re-resolves per attempt so a failover
// mid-retry takes effect: a suspect node's writes answer 503 +
// Retry-After until promotion, its reads degrade to the designated
// follower, and a promoted route stamps writes with the promotion
// generation. The terminal response streams through with an added
// X-Lipstick-Node header.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, node string) {
	var body []byte
	isWrite := r.Method != http.MethodGet && r.Method != http.MethodHead
	if r.Body != nil && isWrite {
		b, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxProxyBody))
		if err != nil {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
				"error": fmt.Sprintf("proxy: reading request body: %v", err),
			})
			return
		}
		body = b
	}
	backoff := p.retryBase
	for attempt := 0; ; attempt++ {
		route := p.resolve(node)
		target, gen := node, uint64(0)
		if route.target != "" {
			target, gen = route.target, route.gen
		} else if route.suspect {
			if isWrite {
				// Degrade writes until promotion completes: the client's
				// Retry-After loop rides through the failover window.
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{
					"error": fmt.Sprintf("proxy: %s is suspect; write refused pending failover", node),
					"kind":  "failover", "state": "suspect", "node": node,
				})
				return
			}
			if route.follower != "" {
				// Degraded read: the follower serves it, marked stale via
				// its own X-Lipstick-Replica-Lag header.
				target = route.follower
			}
		}
		resp, err := p.stampedRoundTrip(r, target, gen, body)
		if err != nil {
			if route.follower != "" && target == node {
				if isWrite {
					// The node died under us but has a failover path: tell
					// the client to retry instead of failing the write.
					w.Header().Set("Retry-After", "1")
					writeJSON(w, http.StatusServiceUnavailable, map[string]string{
						"error": fmt.Sprintf("proxy: forwarding to %s: %v", node, err),
						"kind":  "failover", "state": "unreachable", "node": node,
					})
					return
				}
				// One-shot degraded read against the follower.
				if fresp, ferr := p.roundTrip(r, route.follower, body); ferr == nil {
					p.relay(w, fresp, route.follower)
					return
				}
			}
			writeJSON(w, http.StatusBadGateway, map[string]string{
				"error": fmt.Sprintf("proxy: forwarding to %s: %v", target, err), "node": target,
			})
			return
		}
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !retryable || attempt >= p.maxRetries {
			p.relay(w, resp, target)
			return
		}
		// Drain so the kept-alive connection is reusable, then back off:
		// the node's Retry-After hint when present (capped), the ingest
		// client's full-jitter schedule otherwise.
		retryAfter := serve.ParseRetryAfter(resp.Header.Get("Retry-After"))
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<14))
		_ = resp.Body.Close() // retrying; this response is discarded
		half := backoff / 2
		if half <= 0 {
			half = 1
		}
		delay := half + time.Duration(rand.Int63n(int64(half)))
		if retryAfter > 0 {
			if retryAfter > maxProxyRetryAfter {
				retryAfter = maxProxyRetryAfter
			}
			delay = retryAfter
		}
		if p.sleep != nil {
			p.sleep(delay)
		} else {
			t := time.NewTimer(delay)
			select {
			case <-r.Context().Done():
				t.Stop()
				return // client gone mid-backoff; nothing left to answer
			case <-t.C:
			}
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// roundTrip sends one copy of the request to node.
func (p *Proxy) roundTrip(r *http.Request, node string, body []byte) (*http.Response, error) {
	return p.stampedRoundTrip(r, node, 0, body)
}

// stampedRoundTrip sends one copy of the request to target; gen > 0 on
// an ingest write stamps the failover generation headers so the target
// node fences the request if it is not (or no longer) the generation-gen
// primary.
func (p *Proxy) stampedRoundTrip(r *http.Request, target string, gen uint64, body []byte) (*http.Response, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), reader)
	if err != nil {
		return nil, err
	}
	for k, vs := range r.Header {
		if k == "Connection" || k == "Keep-Alive" || k == "Host" {
			continue
		}
		out.Header[k] = vs
	}
	if gen > 0 && strings.HasPrefix(r.URL.Path, "/v1/ingest/") {
		out.Header.Set(serve.GenerationHeader, strconv.FormatUint(gen, 10))
		out.Header.Set(serve.PrimaryHeader, target)
	}
	return p.client.Do(out)
}

// relay streams a node response to the client.
func (p *Proxy) relay(w http.ResponseWriter, resp *http.Response, node string) {
	defer func() { _ = resp.Body.Close() }() // fully copied (or client gone)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Lipstick-Node", node)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body) // a broken client pipe is the client's problem
}

// fanout issues GET path to every node concurrently and returns the
// decoded bodies (nil for a failed node) alongside per-node errors.
func (p *Proxy) fanout(path string) (nodes []string, bodies [][]byte, errs []error) {
	nodes = p.ring.Nodes()
	bodies = make([][]byte, len(nodes))
	errs = make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			resp, err := p.client.Get(node + path)
			if err != nil {
				errs[i] = err
				return
			}
			defer func() { _ = resp.Body.Close() }() // fully read below
			b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
				return
			}
			bodies[i] = b
		}(i, node)
	}
	wg.Wait()
	return nodes, bodies, errs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
