package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/testutil"
)

// retryBackend is an ingest endpoint that rejects the first `reject`
// attempts with the given status, then accepts, tracking the stream
// sequence like the real handler (idempotent by batch first-sequence).
type retryBackend struct {
	mu       sync.Mutex
	reject   int // remaining rejections; guarded by mu
	status   int
	attempts int    // guarded by mu
	seq      uint64 // guarded by mu
}

func (b *retryBackend) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.attempts++
		if b.reject > 0 {
			b.reject--
			http.Error(w, "overloaded", b.status)
			return
		}
		first, events, err := store.DecodeEventBatch(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if first == b.seq+1 {
			b.seq += uint64(len(events))
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"seq": b.seq})
	})
}

// testEvents builds n consecutive valid node-add events.
func testEvents(n int) []provgraph.Event {
	events := make([]provgraph.Event, n)
	for i := range events {
		events[i] = provgraph.Event{Kind: provgraph.EvAddNode, Node: provgraph.Node{
			ID: provgraph.NodeID(i), Class: provgraph.ClassP,
			Type: provgraph.TypeBaseTuple, Label: "tok", Inv: -1,
		}}
	}
	return events
}

func TestIngestClientRetriesThroughOverloadBurst(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			backend := &retryBackend{reject: 3, status: status}
			srv := httptest.NewServer(backend.handler())
			defer srv.Close()

			var delays []time.Duration
			c := NewIngestClient(srv.URL, "burst", 4)
			c.RetryBase = 8 * time.Millisecond
			c.sleep = func(d time.Duration) { delays = append(delays, d) }
			for _, ev := range testEvents(4) {
				c.Record(ev)
			}
			if err := c.Flush(); err != nil {
				t.Fatalf("flush after burst: %v", err)
			}
			if got := c.Sent(); got != 4 {
				t.Fatalf("Sent = %d, want 4", got)
			}
			if backend.attempts != 4 {
				t.Fatalf("server saw %d attempts, want 4 (3 rejections + 1 success)", backend.attempts)
			}
			// Full jitter: attempt i sleeps in [base*2^i/2, base*2^i).
			if len(delays) != 3 {
				t.Fatalf("recorded %d backoff sleeps, want 3", len(delays))
			}
			base := c.RetryBase
			for i, d := range delays {
				lo, hi := base/2, base
				if d < lo || d >= hi {
					t.Fatalf("delay %d = %v outside jitter window [%v, %v)", i, d, lo, hi)
				}
				base *= 2
			}
		})
	}
}

func TestIngestClientBackoffCapsAtTwoSeconds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	backend := &retryBackend{reject: 12, status: http.StatusTooManyRequests}
	srv := httptest.NewServer(backend.handler())
	defer srv.Close()

	var delays []time.Duration
	c := NewIngestClient(srv.URL, "cap", 2)
	c.RetryBase = 500 * time.Millisecond
	c.MaxRetries = 12
	c.sleep = func(d time.Duration) { delays = append(delays, d) }
	for _, ev := range testEvents(2) {
		c.Record(ev)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(delays) != 12 {
		t.Fatalf("recorded %d sleeps, want 12", len(delays))
	}
	for i, d := range delays {
		if d >= maxRetryBackoff {
			t.Fatalf("delay %d = %v reached the %v cap (jitter keeps it strictly below)", i, d, maxRetryBackoff)
		}
	}
	// Deep into the schedule every delay sits in the capped window.
	for _, d := range delays[3:] {
		if d < maxRetryBackoff/2 {
			t.Fatalf("capped-phase delay %v below %v", d, maxRetryBackoff/2)
		}
	}
}

func TestIngestClientGivesUpAfterMaxRetries(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	backend := &retryBackend{reject: 1 << 30, status: http.StatusServiceUnavailable}
	srv := httptest.NewServer(backend.handler())
	defer srv.Close()

	c := NewIngestClient(srv.URL, "doomed", 2)
	c.RetryBase = time.Millisecond
	c.MaxRetries = 3
	var sleeps int
	c.sleep = func(time.Duration) { sleeps++ }
	for _, ev := range testEvents(2) {
		c.Record(ev)
	}
	err := c.Flush()
	if err == nil {
		t.Fatal("flush succeeded against a permanently overloaded server")
	}
	// The sticky error preserves the last rejection's status line.
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("error %q does not carry the last HTTP status", err)
	}
	if backend.attempts != 4 {
		t.Fatalf("server saw %d attempts, want 4 (initial + MaxRetries)", backend.attempts)
	}
	if sleeps != 3 {
		t.Fatalf("slept %d times, want 3", sleeps)
	}
	// Sticky: later records are dropped, not buffered behind a dead stream.
	c.Record(testEvents(1)[0])
	if got := c.Err(); got == nil || got.Error() != err.Error() {
		t.Fatalf("sticky error changed: %v", got)
	}
}

func TestIngestClientFatalStatusIsNotRetried(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	backend := &retryBackend{reject: 1, status: http.StatusBadRequest}
	srv := httptest.NewServer(backend.handler())
	defer srv.Close()

	c := NewIngestClient(srv.URL, "fatal", 2)
	c.sleep = func(time.Duration) { t.Fatal("a 400 must not back off and retry") }
	for _, ev := range testEvents(2) {
		c.Record(ev)
	}
	if err := c.Flush(); err == nil {
		t.Fatal("flush swallowed a fatal rejection")
	}
	if backend.attempts != 1 {
		t.Fatalf("server saw %d attempts, want 1", backend.attempts)
	}
}

// failoverBackend acks writes like retryBackend, then simulates a
// failover to a trailing promoted follower: its sequence rolls back and
// a configurable window of 503+Retry-After rejections precedes it.
type failoverBackend struct {
	mu        sync.Mutex
	seq       uint64 // guarded by mu
	reject503 int    // remaining suspect-window rejections; guarded by mu
	gaps      int    // ingest-gap responses served; guarded by mu
	applied   []uint64
}

func (b *failoverBackend) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.reject503 > 0 {
			b.reject503--
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": "failover in progress", "kind": "failover"})
			return
		}
		first, events, err := store.DecodeEventBatch(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch {
		case first == b.seq+1:
			for i := range events {
				b.applied = append(b.applied, first+uint64(i))
			}
			b.seq += uint64(len(events))
		case first > b.seq+1:
			b.gaps++
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error": "sequence gap", "kind": "ingest-gap",
				"expected": b.seq + 1, "got": first,
			})
			return
		default:
			// Duplicate prefix: dedupe by sequence, apply the rest.
			for i := range events {
				if s := first + uint64(i); s > b.seq {
					b.applied = append(b.applied, s)
					b.seq = s
				}
			}
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"seq": b.seq})
	})
}

func TestIngestClientRewindsThroughFailover(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	backend := &failoverBackend{}
	srv := httptest.NewServer(backend.handler())
	defer srv.Close()

	c := NewIngestClient(srv.URL, "failover", 4)
	c.RetryBase = time.Millisecond
	c.sleep = func(time.Duration) {}
	events := testEvents(12)
	for _, ev := range events[:8] {
		c.Record(ev)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("pre-failover flush: %v", err)
	}
	// The primary dies: the promoted follower only replicated 5 of the 8
	// acked events and rejects writes during the suspect window.
	backend.mu.Lock()
	backend.seq = 5
	backend.applied = backend.applied[:5]
	backend.reject503 = 2
	backend.mu.Unlock()
	for _, ev := range events[8:] {
		c.Record(ev)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("post-failover flush: %v", err)
	}
	if got := c.Sent(); got != 12 {
		t.Fatalf("Sent = %d, want 12", got)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if backend.seq != 12 {
		t.Fatalf("server seq = %d, want 12 (zero acked-write loss)", backend.seq)
	}
	if backend.gaps == 0 {
		t.Fatal("the rewind path was never exercised")
	}
	// Exactly-once: every sequence applied once, in order, no duplicates.
	seen := map[uint64]bool{}
	for _, s := range backend.applied {
		if seen[s] {
			t.Fatalf("sequence %d applied twice", s)
		}
		seen[s] = true
	}
	for s := uint64(1); s <= 12; s++ {
		if !seen[s] {
			t.Fatalf("sequence %d never applied", s)
		}
	}
}

func TestIngestClientRewindBeyondRetainWindowIsSticky(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	backend := &failoverBackend{}
	srv := httptest.NewServer(backend.handler())
	defer srv.Close()

	c := NewIngestClient(srv.URL, "lost", 4)
	c.RetryBase = time.Millisecond
	c.RetainEvents = -1 // no replay window
	c.sleep = func(time.Duration) {}
	for _, ev := range testEvents(8) {
		c.Record(ev)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	backend.seq = 3 // promoted follower lost acked events 4..8
	backend.mu.Unlock()
	c.Record(testEvents(1)[0])
	if err := c.Flush(); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("unrecoverable gap error = %v, want a loud 409 failure", err)
	}
}

// TestParseRetryAfter: integer seconds, spaces around them allowed;
// anything else, zero and negatives included, leaves the backoff
// schedule in charge (0).
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"-1", 0},
		{" 2", 2 * time.Second},
		{"3 ", 3 * time.Second},
		{"abc", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	} {
		if got := ParseRetryAfter(tc.in); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
