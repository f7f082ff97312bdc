package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strconv"
	"testing"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// FuzzReplicaParams sends arbitrary names and from/max values to the
// replication endpoints (events, status, checkpoint) of a durable live
// graph whose log was checkpointed halfway. Every answer must be a 200,
// 400, 404 or 410: never a panic (the handler is called directly, so one
// fails the test) and never a 500. A 200 from /events must decode to the
// log's suffix from `from`, at most `max` events long.
func FuzzReplicaParams(f *testing.F) {
	reg := core.NewRegistry(nil,
		core.WithLiveDir(f.TempDir()),
		core.WithLiveOptions(core.WithLogOptions(store.WithFsync(false))))
	defer reg.Close()
	svc := NewRegistryService(reg)
	h := svc.Handler("")

	_, events := captureRun(f)
	mid := len(events) / 2
	ingest := func(first int, evs []provgraph.Event) {
		var body bytes.Buffer
		if err := store.EncodeEventBatch(&body, uint64(first), evs); err != nil {
			f.Fatal(err)
		}
		if _, err := svc.Ingest("dur", &body); err != nil {
			f.Fatal(err)
		}
	}
	ingest(1, events[:mid])
	lg, err := reg.LiveGraph("dur")
	if err != nil {
		f.Fatal(err)
	}
	if err := lg.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	ingest(mid+1, events[mid:])
	durable, err := lg.DurableSeq()
	if err != nil || durable != uint64(len(events)) {
		f.Fatalf("durable seq %d (%v), want %d", durable, err, len(events))
	}

	f.Add("dur", "1", "")
	f.Add("dur", strconv.Itoa(mid+1), "7")
	f.Add("dur", strconv.Itoa(len(events)), "")
	f.Add("dur", strconv.Itoa(len(events)+5), "1")
	f.Add("dur", "0", "-1")
	f.Add("dur", "18446744073709551615", "9223372036854775807")
	f.Add("ghost", "x", "0")
	f.Add("../dur", "1e3", " 1")

	f.Fuzz(func(t *testing.T, name, from, max string) {
		if base := "/v1/replica/" + url.PathEscape(name); path.Clean(base) != base {
			// An empty, "." or ".." segment: the mux redirects the
			// request to the cleaned path before any endpoint sees it.
			return
		}
		get := func(endpoint string, q url.Values) *httptest.ResponseRecorder {
			target := "/v1/replica/" + url.PathEscape(name) + "/" + endpoint
			if q != nil {
				target += "?" + q.Encode()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone:
			default:
				t.Fatalf("GET %s: status %d, body %q", target, rec.Code, rec.Body.String())
			}
			return rec
		}
		get("status", nil)
		get("checkpoint", nil)
		q := url.Values{"from": {from}}
		if max != "" {
			q.Set("max", max)
		}
		rec := get("events", q)
		if rec.Code != http.StatusOK {
			return
		}
		first, got, err := store.DecodeEventBatch(rec.Body)
		if err != nil {
			t.Fatalf("events %v: undecodable 200 body: %v", q, err)
		}
		want := suffix(events, first, max)
		var gotBytes, wantBytes bytes.Buffer
		if err := store.EncodeEventBatch(&gotBytes, first, got); err != nil {
			t.Fatal(err)
		}
		if err := store.EncodeEventBatch(&wantBytes, first, want); err != nil {
			t.Fatal(err)
		}
		if first != mustUint(t, from) || !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
			t.Fatalf("events %v: batch from %d with %d events, want the log's suffix from %s (%d events)",
				q, first, len(got), from, len(want))
		}
	})
}

// suffix returns the log's events from sequence first on, at most max
// (the endpoint's default batch when max is empty).
func suffix(log []provgraph.Event, first uint64, max string) []provgraph.Event {
	if first > uint64(len(log)) {
		return nil
	}
	n := defaultReplicaBatch
	if max != "" {
		n, _ = strconv.Atoi(max)
	}
	rest := log[first-1:]
	return rest[:min(n, len(rest))]
}

func mustUint(t *testing.T, s string) uint64 {
	t.Helper()
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("200 for from %q: %v", s, err)
	}
	return n
}
