package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"lipstick/internal/core"
)

// Handler returns the HTTP interface of the query service: the classic
// single-snapshot endpoints, the snapshot registry, and copy-on-write
// mutation sessions.
//
// Read-only queries (answered from the shared cached processor):
//
//	GET /healthz                 liveness + registry counters
//	GET /v1/info                 graph statistics (default snapshot)
//	GET /v1/outputs              recorded output relations
//	GET /v1/zoom?module=M1&module=M2   coarse view, computed on an overlay
//	GET /v1/delete?node=42       what-if deletion propagation
//	GET /v1/subgraph?node=42     subgraph query
//	GET /v1/lineage?node=42      classified ancestry + provenance expression
//	GET /v1/find?type=tuple&op=agg&label=L&module=M&class=p   node selection
//	GET /v1/dot | /v1/opm | /v1/json   exports
//
// Registry (many snapshots per process, routed by name; live graphs
// under ingestion answer the same queries as static snapshots):
//
//	GET /v1/snapshots                     list snapshots (static + live)
//	GET /v1/snapshots/{name}/<query>      any read query above, by name
//	GET /v1/stats                         operational metrics (expvar-backed)
//
// Streaming ingestion (ordered event batches into named live graphs,
// idempotent by sequence number; every read endpoint answers mid-ingest):
//
//	POST /v1/ingest/{name}               binary event batch -> {seq, applied}
//	GET  /v1/ingest/{name}               stream position (sender resync)
//	POST /v1/ingest/{name}/checkpoint    force a WAL checkpoint (durable)
//
// Sessions (mutable what-if views; each costs O(changes) over the shared
// base graph):
//
//	POST   /v1/sessions                   {"snapshot": name} -> session
//	GET    /v1/sessions                   list live sessions
//	GET    /v1/sessions/{id}              session info
//	POST   /v1/sessions/{id}/zoom         {"modules": [...]} or {"in": true}
//	POST   /v1/sessions/{id}/delete       {"nodes": [42], "whatIf": false}
//	POST   /v1/sessions/{id}/fork         clone the session's deltas
//	GET    /v1/sessions/{id}/find         session-scoped node selection
//	GET    /v1/sessions/{id}/subgraph     session-scoped subgraph
//	GET    /v1/sessions/{id}/lineage      session-scoped lineage
//	GET    /v1/sessions/{id}/dot          session view as Graphviz DOT
//	DELETE /v1/sessions/{id}              discard the session
//
// The default snapshot (the Handler argument, registered under its base
// name) backs the flat /v1/* read endpoints; when the handler is built
// without one (`lipstick serve -dir`), those endpoints answer while
// exactly one static snapshot, or else exactly one live graph and no
// static snapshot, is registered, and name-routed queries otherwise
// (resolve holds the precedence). Snapshots are resolved through the
// service's SnapshotManager on every request, so a snapshot replaced on
// disk is picked up without a restart. Find, subgraph, lineage and dot
// have one body each, which the snapshot, live and session routes share.
func (s *Service) Handler(snapshot string) http.Handler {
	if snapshot != "" {
		// Surface the default snapshot in the registry; a name collision
		// (e.g. an identically named file already scanned from a dir)
		// falls back to serving it unregistered via the flat endpoints.
		_ = s.reg.Register(core.SnapshotName(snapshot), snapshot)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, follower := s.FollowerPrimary()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":     "ok",
			"snapshot":   snapshot,
			"snapshots":  s.reg.NumSnapshots(),
			"sessions":   s.reg.NumSessions(),
			"generation": s.Generation(),
			"follower":   follower,
		})
	})

	handle := func(pattern string, fn func(r *http.Request) (any, error)) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			res, err := fn(r)
			if err != nil {
				writeErr(w, err)
				return
			}
			if res == nil {
				res = map[string]string{"status": "ok"}
			}
			writeJSON(w, http.StatusOK, res)
		})
	}

	// Flat read endpoints over the default target, plus the same queries
	// routed by registered name — answered identically from a static
	// snapshot's cached processor or a live graph mid-ingest.
	//
	// Live targets take the lock-free path: a published view covering
	// every applied event answers, the response carries its sequence in
	// X-Lipstick-Seq, and a query's encoded body is cached keyed by
	// (graph, seq, endpoint, normalized query) — a view is immutable, so a
	// hit is exact by construction and skips both the query and the encode.
	// Exports (whole-graph DOT/OPM/JSON dumps) are stamped the same way
	// but are not worth holding in the cache.
	read := func(suffix, contentType string, cached bool, body func(r *http.Request, qp *core.QueryProcessor) ([]byte, error)) {
		for _, pattern := range []string{"GET /v1/" + suffix, "GET /v1/snapshots/{name}/" + suffix} {
			mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
				start := time.Now()
				defer func() { core.ObserveQueryLatency(time.Since(start)) }()
				t, err := s.resolve(r, snapshot)
				if err != nil {
					writeErr(w, err)
					return
				}
				var key string
				if t.live != nil {
					w.Header().Set("X-Lipstick-Seq", strconv.FormatUint(t.seq, 10))
					if lag, ok := s.replicaLag(t.live.Name()); ok {
						w.Header().Set("X-Lipstick-Replica-Lag", strconv.FormatUint(lag.LagSeq, 10))
					}
					if cached {
						key = queryCacheKey(t.live.Name(), t.seq, suffix, r.URL.Query())
						if b, ok := s.cache.Get(key); ok {
							w.Header().Set("X-Lipstick-Cache", "hit")
							writeBody(w, contentType, b)
							return
						}
					}
				}
				b, err := body(r, t.qp)
				if err != nil {
					writeErr(w, err)
					return
				}
				if key != "" {
					s.cache.Put(key, b)
				}
				writeBody(w, contentType, b)
			})
		}
	}
	query := func(suffix string, fn func(r *http.Request, qp *core.QueryProcessor) (any, error)) {
		read(suffix, jsonContentType, true, func(r *http.Request, qp *core.QueryProcessor) ([]byte, error) {
			return jsonBody(fn(r, qp))
		})
	}
	query("info", func(r *http.Request, qp *core.QueryProcessor) (any, error) { return infoOf(qp) })
	query("outputs", func(r *http.Request, qp *core.QueryProcessor) (any, error) { return outputsOf(qp) })
	query("zoom", func(r *http.Request, qp *core.QueryProcessor) (any, error) {
		return zoomOf(qp, r.URL.Query()["module"]...)
	})
	query("delete", func(r *http.Request, qp *core.QueryProcessor) (any, error) {
		return deleteOf(qp, r.URL.Query().Get("node"))
	})
	for suffix, fn := range viewQueries {
		query(suffix, func(r *http.Request, qp *core.QueryProcessor) (any, error) { return fn(r, qp.View()) })
	}

	// Registry and operational metrics.
	handle("GET /v1/snapshots", func(*http.Request) (any, error) { return s.Snapshots(), nil })
	handle("GET /v1/stats", func(*http.Request) (any, error) { return s.Stats(), nil })

	// Replication: status/events/checkpoint reads a follower tails.
	s.replicaRoutes(mux, handle)

	// Streaming ingestion: binary event batches into named live graphs.
	// Writes are generation-fenced: a stamped request whose epoch does
	// not match this node's is rejected 409 (see fenceCheck).
	handle("POST /v1/ingest/{name}", func(r *http.Request) (any, error) {
		if err := s.fenceCheck(r); err != nil {
			return nil, err
		}
		return s.Ingest(r.PathValue("name"), http.MaxBytesReader(nil, r.Body, maxIngestBytes))
	})
	handle("GET /v1/ingest/{name}", func(r *http.Request) (any, error) {
		return s.IngestStatus(r.PathValue("name"))
	})
	handle("POST /v1/ingest/{name}/checkpoint", func(r *http.Request) (any, error) {
		if err := s.fenceCheck(r); err != nil {
			return nil, err
		}
		return s.CheckpointLive(r.PathValue("name"))
	})

	// Failover control plane: the coordinator promotes the most
	// caught-up follower with a bumped generation and demotes a zombie
	// ex-primary back to follower.
	handle("POST /v1/promote", func(r *http.Request) (any, error) {
		var req struct {
			Generation uint64 `json:"generation"`
		}
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		return s.PromoteToPrimary(req.Generation)
	})
	handle("POST /v1/demote", func(r *http.Request) (any, error) {
		var req struct {
			Generation uint64 `json:"generation"`
			Primary    string `json:"primary"`
		}
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		return s.DemoteToFollower(req.Primary, req.Generation)
	})

	// Chaos endpoints (opt-in via serve -chaos): remote-controlled
	// failpoints and a kill switch for the schedule runner.
	s.chaosRoutes(handle)

	// Session lifecycle and transformations.
	handle("POST /v1/sessions", func(r *http.Request) (any, error) {
		var req struct {
			Snapshot string `json:"snapshot"`
		}
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		return s.CreateSession(req.Snapshot)
	})
	handle("GET /v1/sessions", func(*http.Request) (any, error) { return s.Sessions(), nil })
	handle("GET /v1/sessions/{id}", func(r *http.Request) (any, error) {
		return s.SessionInfo(r.PathValue("id"))
	})
	handle("DELETE /v1/sessions/{id}", func(r *http.Request) (any, error) {
		if err := s.CloseSession(r.PathValue("id")); err != nil {
			return nil, err
		}
		return map[string]string{"status": "closed", "session": r.PathValue("id")}, nil
	})
	handle("POST /v1/sessions/{id}/zoom", func(r *http.Request) (any, error) {
		var req SessionZoomRequest
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		return s.SessionZoom(r.PathValue("id"), req)
	})
	handle("POST /v1/sessions/{id}/delete", func(r *http.Request) (any, error) {
		var req SessionDeleteRequest
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		return s.SessionDelete(r.PathValue("id"), req)
	})
	handle("POST /v1/sessions/{id}/fork", func(r *http.Request) (any, error) {
		return s.ForkSession(r.PathValue("id"))
	})
	// Exports, buffered so an export error still yields a proper status.
	export := func(suffix, contentType string, fn func(qp *core.QueryProcessor, w io.Writer) error) {
		read(suffix, contentType, false, func(r *http.Request, qp *core.QueryProcessor) ([]byte, error) {
			var buf bytes.Buffer
			err := fn(qp, &buf)
			return buf.Bytes(), err
		})
	}
	export("dot", dotContentType, func(qp *core.QueryProcessor, w io.Writer) error {
		return dotOf(qp.View(), w, "lipstick")
	})
	export("opm", jsonContentType, writeOPMOf)
	export("json", jsonContentType, writeJSONOf)

	// Session reads run the same bodies over the session's overlay, under
	// one hold of its lock: the node id check and the answer see one
	// state, whatever zooms and deletes run beside them.
	sessionRead := func(suffix, contentType string, body func(r *http.Request, v core.View) ([]byte, error)) {
		mux.HandleFunc("GET /v1/sessions/{id}/"+suffix, func(w http.ResponseWriter, r *http.Request) {
			sess, err := s.reg.Session(r.PathValue("id"))
			var b []byte
			if err == nil {
				err = sess.Read(func(v core.View) (verr error) {
					b, verr = body(r, v)
					return verr
				})
			}
			if err != nil {
				writeErr(w, err)
				return
			}
			writeBody(w, contentType, b)
		})
	}
	for suffix, fn := range viewQueries {
		sessionRead(suffix, jsonContentType, func(r *http.Request, v core.View) ([]byte, error) {
			return jsonBody(fn(r, v))
		})
	}
	sessionRead("dot", dotContentType, func(r *http.Request, v core.View) ([]byte, error) {
		var buf bytes.Buffer
		err := dotOf(v, &buf, "lipstick-session")
		return buf.Bytes(), err
	})

	// Method-pattern muxes answer a wrong-method hit with a plain 405;
	// wrap to keep the JSON error contract.
	return jsonErrorMiddleware(mux)
}

// viewQueries are the queries a snapshot, a live graph and a session
// answer with one body each, over a core.View.
var viewQueries = map[string]func(r *http.Request, v core.View) (any, error){
	"find": func(r *http.Request, v core.View) (any, error) { return findOf(v, findRequestOf(r)) },
	"subgraph": func(r *http.Request, v core.View) (any, error) {
		return subgraphOf(v, r.URL.Query().Get("node"))
	},
	"lineage": func(r *http.Request, v core.View) (any, error) {
		return lineageOf(v, r.URL.Query().Get("node"))
	},
}

// target is what a read request resolves to: the processor that answers
// it and, for a live graph, the graph and the sequence of the published
// view that processor reads.
type target struct {
	qp   *core.QueryProcessor
	live *core.LiveGraph
	seq  uint64
}

// resolve maps a read request to its target. This is the one place the
// precedence is written: a name-routed live graph, then a name-routed
// static snapshot, then the handler's explicit default snapshot (served
// by path, even when its name collided at registration), then the only
// registered static snapshot, then the only live graph.
func (s *Service) resolve(r *http.Request, snapshot string) (target, error) {
	path := snapshot
	if name := r.PathValue("name"); name != "" {
		if lg, err := s.reg.LiveGraph(name); err == nil {
			return liveTarget(lg), nil
		}
		p, err := s.reg.Lookup(name)
		if err != nil {
			return target{}, err
		}
		path = p
	} else if path == "" {
		if only, ok := s.reg.Single(); ok {
			path = only.Path
		} else if lg, ok := s.reg.SingleLive(); ok {
			return liveTarget(lg), nil
		} else {
			return target{}, badRequestf("no default snapshot: address one by name via /v1/snapshots/{name}/...")
		}
	}
	qp, err := s.open(path)
	return target{qp: qp}, err
}

// liveTarget reads lg's published view covering every applied event.
func liveTarget(lg *core.LiveGraph) target {
	v := lg.ReadView()
	return target{qp: v.QP, live: lg, seq: v.Seq}
}

// findRequestOf decodes the shared find query parameters.
func findRequestOf(r *http.Request) FindRequest {
	q := r.URL.Query()
	return FindRequest{
		Classes: q["class"],
		Types:   q["type"],
		Ops:     q["op"],
		Label:   q.Get("label"),
		Module:  q.Get("module"),
	}
}

// maxBodyBytes caps request bodies; the session API's JSON bodies are a
// few names or node ids, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// maxIngestBytes caps one ingest batch. Senders flush every few hundred
// events, so 32 MiB leaves room for value-heavy streams.
const maxIngestBytes = 32 << 20

// decodeJSON parses a size-bounded request body as JSON into v; an
// empty body leaves v zero-valued.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return badRequestf("invalid JSON body: %v", err)
	}
	return nil
}

// jsonErrorMiddleware rewrites the mux's plain-text 404/405 fallbacks
// into the service's JSON error shape.
func jsonErrorMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusCaptureWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
	})
}

// statusCaptureWriter swaps the body of plain-text error fallbacks
// (route not found, method not allowed) for the JSON error shape while
// passing every handler-produced response through untouched.
type statusCaptureWriter struct {
	http.ResponseWriter
	intercept bool
}

func (w *statusCaptureWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		w.Header().Get("Content-Type") != jsonContentType {
		// The mux's own fallback: replace the plain-text body.
		w.intercept = true
		w.Header().Set("Content-Type", jsonContentType)
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(status)
		msg := "not found"
		if status == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		body, _ := json.Marshal(map[string]string{"error": msg})
		_, _ = w.ResponseWriter.Write(append(body, '\n'))
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusCaptureWriter) Write(p []byte) (int, error) {
	if w.intercept {
		// Swallow the plain-text fallback body; report it as written.
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// statusFor maps service errors to HTTP statuses: argument problems
// (node ids outside a session view included) and ingested events the
// graph cannot apply are 400s, unknown snapshot names / session ids / missing snapshot files
// are 404s, ingest sequence gaps are 409s, a full ingest queue is a 429,
// everything else (corrupt snapshot, I/O) a 500.
func statusFor(err error) int {
	var bad *BadRequestError
	var name *core.NameError
	var nf *core.NotFoundError
	var gap *core.SeqGapError
	var badEvent *core.EventError
	var badNode *core.NodeRangeError
	var over *core.OverloadedError
	var fol *FollowerError
	var fenced *FencedError
	switch {
	case errors.As(err, &fenced):
		// 409 like an ingest gap: the request and the node disagree about
		// cluster state, and retrying verbatim cannot help.
		return http.StatusConflict
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.As(err, &name), errors.As(err, &badEvent), errors.As(err, &badNode):
		return http.StatusBadRequest
	case errors.As(err, &nf):
		return http.StatusNotFound
	case errors.As(err, &gap):
		return http.StatusConflict
	case errors.As(err, &over):
		return http.StatusTooManyRequests
	case errors.As(err, &fol):
		// 403, not 429/503: follower rejections are not retryable on this
		// node — the client must redirect writes to the primary.
		return http.StatusForbidden
	case os.IsNotExist(err):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// overloadRetryAfter is the Retry-After hint on 429s: admission queues
// drain at fsync cadence, so a client backing off for about a second
// rejoins a healthy queue.
const overloadRetryAfter = "1"

// writeErr renders an error with its mapped status. Registry misses
// (unknown snapshot name, unknown session id) carry a structured body:
// {"error": ..., "kind": "snapshot"|"session", "name": ...}; ingest gaps
// carry the stream's expected sequence so senders can resync.
func writeErr(w http.ResponseWriter, err error) {
	var nf *core.NotFoundError
	if errors.As(err, &nf) {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": err.Error(), "kind": nf.Kind, "name": nf.Name,
		})
		return
	}
	var gap *core.SeqGapError
	if errors.As(err, &gap) {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": err.Error(), "kind": "ingest-gap", "name": gap.Name,
			"expected": gap.Expected, "got": gap.Got,
		})
		return
	}
	var over *core.OverloadedError
	if errors.As(err, &over) {
		w.Header().Set("Retry-After", overloadRetryAfter)
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": err.Error(), "kind": "overloaded", "name": over.Name,
			"depth": over.Depth,
		})
		return
	}
	var fol *FollowerError
	if errors.As(err, &fol) {
		writeJSON(w, http.StatusForbidden, map[string]string{
			"error": err.Error(), "kind": "follower", "primary": fol.Primary,
		})
		return
	}
	var fenced *FencedError
	if errors.As(err, &fenced) {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": err.Error(), "kind": "fenced",
			"nodeGeneration": fenced.NodeGeneration, "requestGeneration": fenced.RequestGeneration,
		})
		return
	}
	writeError(w, statusFor(err), err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// encodeJSONBody marshals v exactly as writeJSON would stream it
// (unescaped HTML, trailing newline), yielding the byte body the query
// cache stores — a hit replays the identical response.
func encodeJSONBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jsonBody encodes a query's answer, or passes its error on.
func jsonBody(res any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return encodeJSONBody(res)
}

// Content types of the read answers.
const (
	jsonContentType = "application/json; charset=utf-8"
	dotContentType  = "text/vnd.graphviz; charset=utf-8"
)

// writeBody writes a read's 200 answer.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// queryCacheKey normalizes a request into its cache identity:
// graph name, view sequence, endpoint, and the query parameters with
// KEYS sorted but each key's values kept in request order. Key order is
// irrelevant to every handler, so ?a=1&b=2 and ?b=2&a=1 share an entry;
// value order is observable (ZoomResult echoes modules in request
// order), so ?module=A&module=B and ?module=B&module=A must not.
func queryCacheKey(name string, seq uint64, suffix string, q url.Values) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte(0)
	b.WriteString(strconv.FormatUint(seq, 10))
	b.WriteByte(0)
	b.WriteString(suffix)
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range q[k] {
			b.WriteByte(0)
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
	return b.String()
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
