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
// without one (`lipstick serve -dir`), those endpoints answer only while
// exactly one snapshot is registered, and name-routed queries otherwise.
// Snapshots are resolved through the service's SnapshotManager on every
// request, so a snapshot replaced on disk is picked up without a restart.
func (s *Service) Handler(snapshot string) http.Handler {
	if snapshot != "" {
		// Surface the default snapshot in the registry; a name collision
		// (e.g. an identically named file already scanned from a dir)
		// falls back to serving it unregistered via the flat endpoints.
		_ = s.reg.Register(core.SnapshotName(snapshot), snapshot)
	}
	// defaultRun resolves the flat /v1/* endpoints' target at request
	// time: the explicit default snapshot, else the only registered
	// static snapshot, else the only live graph.
	defaultRun := func() (runFn, error) {
		if snapshot != "" {
			return s.pathRun(snapshot), nil
		}
		if only, ok := s.reg.Single(); ok {
			return s.pathRun(only.Path), nil
		}
		if lg, ok := s.reg.SingleLive(); ok {
			return lg.Read, nil
		}
		return nil, badRequestf("no default snapshot: address one by name via /v1/snapshots/{name}/...")
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

	// resolveRun picks the request's target: a name-routed live graph or
	// static snapshot, else the default.
	resolveRun := func(r *http.Request) (runFn, error) {
		if name := r.PathValue("name"); name != "" {
			return s.targetRun(name)
		}
		return defaultRun()
	}

	// resolveLive returns the live graph a request targets, when it does
	// (name-routed, or the default resolving to the only live graph) —
	// the targets whose responses are seq-stamped and cacheable. Its
	// precedence mirrors resolveRun exactly.
	resolveLive := func(r *http.Request) (*core.LiveGraph, bool) {
		if name := r.PathValue("name"); name != "" {
			lg, err := s.reg.LiveGraph(name)
			return lg, err == nil
		}
		if snapshot == "" {
			if _, ok := s.reg.Single(); !ok {
				if lg, ok := s.reg.SingleLive(); ok {
					return lg, true
				}
			}
		}
		return nil, false
	}

	// Flat read endpoints over the default target, plus the same queries
	// routed by registered name — answered identically from a static
	// snapshot's cached processor or a live graph mid-ingest.
	//
	// Live targets take the lock-free path: the newest published view
	// answers, the response carries its sequence in X-Lipstick-Seq, and
	// the marshaled body is cached keyed by (graph, seq, endpoint,
	// normalized query) — a view is immutable, so a hit is exact by
	// construction and skips both the query and the JSON encode.
	query := func(suffix string, fn func(r *http.Request, qp *core.QueryProcessor) (any, error)) {
		for _, pattern := range []string{"GET /v1/" + suffix, "GET /v1/snapshots/{name}/" + suffix} {
			mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
				start := time.Now()
				defer func() { core.ObserveQueryLatency(time.Since(start)) }()
				if lg, ok := resolveLive(r); ok {
					v := lg.ReadView()
					w.Header().Set("X-Lipstick-Seq", strconv.FormatUint(v.Seq, 10))
					if lag, ok := s.replicaLag(lg.Name()); ok {
						w.Header().Set("X-Lipstick-Replica-Lag", strconv.FormatUint(lag.LagSeq, 10))
					}
					key := queryCacheKey(lg.Name(), v.Seq, suffix, r.URL.Query())
					if body, ok := s.cache.Get(key); ok {
						w.Header().Set("X-Lipstick-Cache", "hit")
						writeJSONBody(w, http.StatusOK, body)
						return
					}
					res, err := fn(r, v.QP)
					if err != nil {
						writeErr(w, err)
						return
					}
					if res == nil {
						res = map[string]string{"status": "ok"}
					}
					body, err := encodeJSONBody(res)
					if err != nil {
						writeErr(w, err)
						return
					}
					s.cache.Put(key, body)
					writeJSONBody(w, http.StatusOK, body)
					return
				}
				run, err := resolveRun(r)
				if err != nil {
					writeErr(w, err)
					return
				}
				var res any
				err = run(func(qp *core.QueryProcessor) error {
					var qerr error
					res, qerr = fn(r, qp)
					return qerr
				})
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
	}
	query("info", func(r *http.Request, qp *core.QueryProcessor) (any, error) { return infoOf(qp) })
	query("outputs", func(r *http.Request, qp *core.QueryProcessor) (any, error) { return outputsOf(qp) })
	query("zoom", func(r *http.Request, qp *core.QueryProcessor) (any, error) {
		return zoomOf(qp, r.URL.Query()["module"]...)
	})
	query("delete", func(r *http.Request, qp *core.QueryProcessor) (any, error) {
		return deleteOf(qp, r.URL.Query().Get("node"))
	})
	query("subgraph", func(r *http.Request, qp *core.QueryProcessor) (any, error) {
		return subgraphOf(qp, r.URL.Query().Get("node"))
	})
	query("lineage", func(r *http.Request, qp *core.QueryProcessor) (any, error) {
		return lineageOf(qp, r.URL.Query().Get("node"))
	})
	query("find", func(r *http.Request, qp *core.QueryProcessor) (any, error) {
		return findOf(qp, findRequestOf(r))
	})

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
	handle("GET /v1/sessions/{id}/find", func(r *http.Request) (any, error) {
		return s.SessionFind(r.PathValue("id"), findRequestOf(r))
	})
	handle("GET /v1/sessions/{id}/subgraph", func(r *http.Request) (any, error) {
		return s.SessionSubgraph(r.PathValue("id"), r.URL.Query().Get("node"))
	})
	handle("GET /v1/sessions/{id}/lineage", func(r *http.Request) (any, error) {
		return s.SessionLineage(r.PathValue("id"), r.URL.Query().Get("node"))
	})

	// Streaming exports (buffered so an export error still yields a
	// proper status).
	stream := func(pattern, contentType string, fn func(r *http.Request, w *bytes.Buffer) error) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			var buf bytes.Buffer
			if err := fn(r, &buf); err != nil {
				writeErr(w, err)
				return
			}
			w.Header().Set("Content-Type", contentType)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(buf.Bytes())
		})
	}
	// Exports resolve live targets through the published view too (and
	// stamp X-Lipstick-Seq), but their bodies — whole-graph DOT/OPM/JSON
	// dumps — are not worth holding in the query cache.
	export := func(suffix, contentType string, fn func(qp *core.QueryProcessor, w io.Writer) error) {
		for _, pattern := range []string{"GET /v1/" + suffix, "GET /v1/snapshots/{name}/" + suffix} {
			mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
				start := time.Now()
				defer func() { core.ObserveQueryLatency(time.Since(start)) }()
				var buf bytes.Buffer
				if lg, ok := resolveLive(r); ok {
					v := lg.ReadView()
					w.Header().Set("X-Lipstick-Seq", strconv.FormatUint(v.Seq, 10))
					if lag, ok := s.replicaLag(lg.Name()); ok {
						w.Header().Set("X-Lipstick-Replica-Lag", strconv.FormatUint(lag.LagSeq, 10))
					}
					if err := fn(v.QP, &buf); err != nil {
						writeErr(w, err)
						return
					}
				} else {
					run, err := resolveRun(r)
					if err != nil {
						writeErr(w, err)
						return
					}
					err = run(func(qp *core.QueryProcessor) error { return fn(qp, &buf) })
					if err != nil {
						writeErr(w, err)
						return
					}
				}
				w.Header().Set("Content-Type", contentType)
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write(buf.Bytes())
			})
		}
	}
	export("dot", "text/vnd.graphviz; charset=utf-8", writeDOTOf)
	export("opm", "application/json; charset=utf-8", writeOPMOf)
	export("json", "application/json; charset=utf-8", writeJSONOf)
	stream("GET /v1/sessions/{id}/dot", "text/vnd.graphviz; charset=utf-8",
		func(r *http.Request, buf *bytes.Buffer) error {
			return s.SessionDOT(r.PathValue("id"), buf)
		})

	// Method-pattern muxes answer a wrong-method hit with a plain 405;
	// wrap to keep the JSON error contract.
	return jsonErrorMiddleware(mux)
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
		w.Header().Get("Content-Type") != "application/json; charset=utf-8" {
		// The mux's own fallback: replace the plain-text body.
		w.intercept = true
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
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

// statusFor maps service errors to HTTP statuses: argument problems and
// ingested events the graph cannot apply are 400s, unknown snapshot names / session ids / missing snapshot files
// are 404s, ingest sequence gaps are 409s, a full ingest queue is a 429,
// everything else (corrupt snapshot, I/O) a 500.
func statusFor(err error) int {
	var bad *BadRequestError
	var name *core.NameError
	var nf *core.NotFoundError
	var gap *core.SeqGapError
	var badEvent *core.EventError
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
	case errors.As(err, &name), errors.As(err, &badEvent):
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
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
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

// writeJSONBody writes a pre-encoded JSON body.
func writeJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
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
