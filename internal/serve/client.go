package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"lipstick/internal/faultinject"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// Ingest posts one event batch — sequences firstSeq..firstSeq+len-1 of a
// stream — to a lipstick server's POST /v1/ingest/{name} endpoint and
// returns the stream's resulting sequence. Most callers want the stateful
// IngestClient, which numbers and batches events automatically and
// retries overload rejections.
func Ingest(serverURL, name string, firstSeq uint64, events []provgraph.Event) (seq uint64, err error) {
	seq, _, _, err = ingest(http.DefaultClient, serverURL, name, firstSeq, events)
	return seq, err
}

// ingestGapError is the typed form of the server's 409 ingest-gap body:
// the stream's next expected sequence. A gap BELOW the client's acked
// position is the failover signature — a promoted follower that trails
// the dead primary — and the client rewinds from its retained window.
type ingestGapError struct {
	name     string
	expected uint64
	got      uint64
	msg      string
}

// Error implements error.
func (e *ingestGapError) Error() string { return e.msg }

// transportError marks failures where no HTTP response arrived (refused
// connection, reset mid-body). Batches carry their sequence numbers and
// the server dedupes, so retrying these is exactly-once safe.
type transportError struct{ err error }

// Error implements error.
func (e *transportError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying failure.
func (e *transportError) Unwrap() error { return e.err }

// ingest sends one batch and reports the HTTP status and any Retry-After
// hint alongside the error, so callers can tell retryable rejections
// (429/503, transport failures) from fatal ones and pace their backoff.
func ingest(c *http.Client, serverURL, name string, firstSeq uint64, events []provgraph.Event) (uint64, int, time.Duration, error) {
	var body bytes.Buffer
	if err := store.EncodeEventBatch(&body, firstSeq, events); err != nil {
		return 0, 0, 0, err
	}
	u := fmt.Sprintf("%s/v1/ingest/%s", serverURL, url.PathEscape(name))
	resp, err := c.Post(u, "application/octet-stream", &body)
	if err != nil {
		return 0, 0, 0, &transportError{err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return 0, resp.StatusCode, 0, &transportError{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		retryAfter := ParseRetryAfter(resp.Header.Get("Retry-After"))
		err := fmt.Errorf("lipstick: ingest %s: server returned %s: %s",
			name, resp.Status, bytes.TrimSpace(payload))
		if resp.StatusCode == http.StatusConflict {
			var gap struct {
				Kind     string `json:"kind"`
				Expected uint64 `json:"expected"`
				Got      uint64 `json:"got"`
			}
			if jerr := json.Unmarshal(payload, &gap); jerr == nil && gap.Kind == "ingest-gap" {
				return 0, resp.StatusCode, retryAfter,
					&ingestGapError{name: name, expected: gap.Expected, got: gap.Got, msg: err.Error()}
			}
		}
		return 0, resp.StatusCode, retryAfter, err
	}
	var res IngestResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return 0, resp.StatusCode, 0, fmt.Errorf("lipstick: ingest %s: decoding response: %w", name, err)
	}
	return res.Seq, resp.StatusCode, 0, nil
}

// ParseRetryAfter decodes an integer-seconds Retry-After value, spaces
// around it allowed; 0 means absent, not positive or unusable (an
// HTTP-date included), and the caller's own backoff schedule applies.
func ParseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// DefaultIngestBatch is the IngestClient's flush threshold in events.
const DefaultIngestBatch = 512

// IngestClient streams provenance events to a lipstick server as they
// are captured: attach Record as an event sink (workflow.WithEventSink,
// Graph.SetEventSink) and events are numbered, batched, and POSTed to
// /v1/ingest/{name}. Errors are sticky — capture continues buffering, and
// Flush (call it once the run finishes) reports the first failure.
//
// The client rides through a primary failover: retryable rejections
// (429 overload, 503 failover-in-progress, transport failures) back off
// and resend, honoring the server's Retry-After; and when a promoted
// follower answers with a sequence gap below the acked position — the
// new primary trails what the dead one acked — the client rewinds into
// its retained-event window and replays the suffix. Batches carry their
// sequence numbers and the server dedupes, so the replay applies
// exactly once.
//
// The client is safe for concurrent use, though capture itself is
// single-writer; the zero batch size selects DefaultIngestBatch.
type IngestClient struct {
	// HTTPClient overrides the default transport (30s timeout, an
	// "ingest.transport" failpoint for chaos tests).
	HTTPClient *http.Client
	// MaxRetries bounds how often one batch is retried after a retryable
	// rejection before the error turns sticky. 0 selects
	// DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// RetryBase is the initial backoff before the first retry; it doubles
	// per attempt (±50% jitter, capped at 2s), propagating the server's
	// backpressure to the capture source. A Retry-After hint overrides
	// the jittered delay (honored up to 5s). 0 selects DefaultRetryBase.
	RetryBase time.Duration
	// RetainEvents bounds the acked-event replay window kept for
	// failover rewind. 0 selects DefaultRetainEvents; negative disables
	// retention (a failover behind the acked position then turns sticky).
	RetainEvents int

	server string
	name   string
	batch  int
	// sleep is the backoff clock; tests inject a recorder. nil = time.Sleep.
	sleep func(time.Duration)

	mu   sync.Mutex
	buf  []provgraph.Event // guarded by mu
	sent uint64            // events acknowledged by the server; guarded by mu
	err  error             // guarded by mu
	// retained is the acked suffix kept for failover replay; its first
	// event has sequence retainedFirst and its last has sequence sent.
	retained      []provgraph.Event // guarded by mu
	retainedFirst uint64            // guarded by mu
}

// Retry defaults: eight attempts starting at 25ms cover ~6s of sustained
// overload before giving up. Retry-After hints are honored up to
// maxRetryAfterHonor. DefaultRetainEvents keeps 64k acked events
// (a few MB) replayable — enough to cover the replication lag of an
// async follower at typical ingest rates.
const (
	DefaultMaxRetries   = 8
	DefaultRetryBase    = 25 * time.Millisecond
	maxRetryBackoff     = 2 * time.Second
	maxRetryAfterHonor  = 5 * time.Second
	DefaultRetainEvents = 1 << 16
)

// NewIngestClient returns a streaming client for one named stream on one
// server (e.g. NewIngestClient("http://localhost:8080", "run1")).
// batchSize <= 0 selects DefaultIngestBatch.
func NewIngestClient(serverURL, name string, batchSize int) *IngestClient {
	if batchSize <= 0 {
		batchSize = DefaultIngestBatch
	}
	return &IngestClient{
		HTTPClient: &http.Client{
			Timeout:   30 * time.Second,
			Transport: faultinject.Transport("ingest.transport", nil),
		},
		server:        serverURL,
		name:          name,
		batch:         batchSize,
		retainedFirst: 1,
	}
}

// Record buffers one event, flushing a full batch synchronously. It
// matches the event-sink signature. Once the error state is sticky the
// stream can never resume (events in between would be lost), so further
// events are dropped instead of accumulating a dead buffer.
func (c *IngestClient) Record(ev provgraph.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.buf = append(c.buf, ev)
	if len(c.buf) >= c.batch {
		c.flushLocked()
	}
}

// Flush sends any buffered events and returns the sticky error state.
func (c *IngestClient) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && len(c.buf) > 0 {
		c.flushLocked()
	}
	return c.err
}

// Err returns the sticky error without flushing.
func (c *IngestClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Sent returns the number of events the server has acknowledged.
func (c *IngestClient) Sent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// flushLocked sends the buffered batch, retrying overload rejections
// (429/503) and transport failures with jittered exponential backoff
// (Retry-After hints override the jitter), and rewinding into the
// retained window when a failover left the new primary behind the acked
// position. Retries and replays are safe: batches carry their sequence
// numbers and the server dedupes, so a resent batch is applied exactly
// once even if an earlier attempt landed.
func (c *IngestClient) flushLocked() {
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	}
	backoff := c.RetryBase
	if backoff <= 0 {
		backoff = DefaultRetryBase
	}
	var seq uint64
	var err error
	for attempt := 0; ; attempt++ {
		var status int
		var retryAfter time.Duration
		seq, status, retryAfter, err = ingest(c.HTTPClient, c.server, c.name, c.sent+1, c.buf)
		if err == nil {
			break
		}
		var gap *ingestGapError
		if errors.As(err, &gap) && c.rewindLocked(gap) {
			// Rewound into the retained window: resend immediately (the
			// new primary is writable, just behind), but still bounded by
			// the retry budget so a pathological server cannot loop us.
			if attempt >= maxRetries {
				c.err = fmt.Errorf("lipstick: ingest %s: retries exhausted during failover rewind: %w", c.name, err)
				return
			}
			continue
		}
		var transport *transportError
		retryable := status == http.StatusTooManyRequests ||
			status == http.StatusServiceUnavailable || errors.As(err, &transport)
		if !retryable || attempt >= maxRetries {
			c.err = err
			return
		}
		// Full jitter in [backoff/2, backoff): desynchronizes a fleet of
		// shed senders so they do not stampede back in lockstep. The half
		// is clamped to a positive value so a sub-2ns RetryBase cannot
		// feed rand.Int63n a zero. A server-provided Retry-After wins
		// over the jitter — the server knows when it will be writable.
		half := backoff / 2
		if half <= 0 {
			half = 1
		}
		delay := half + time.Duration(rand.Int63n(int64(half)))
		if retryAfter > 0 {
			if retryAfter > maxRetryAfterHonor {
				retryAfter = maxRetryAfterHonor
			}
			delay = retryAfter
		}
		if c.sleep != nil {
			c.sleep(delay)
		} else {
			time.Sleep(delay)
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
	want := c.sent + uint64(len(c.buf))
	if seq != want {
		// The server is past this client's position: the stream name is
		// already in use (a previous run, another sender). Flag it now —
		// silently "acknowledged" duplicates would discard this run.
		c.err = fmt.Errorf("lipstick: ingest %s: server is at sequence %d, this sender at %d — stream name already in use; pick a fresh name", c.name, seq, want)
		return
	}
	c.sent = want
	c.retainLocked(c.buf)
	c.buf = c.buf[:0]
}

// rewindLocked moves the send position back to the server's expected
// sequence when the retained window still covers it: the to-replay
// suffix is prepended to the buffer and the acked position rolls back.
// It reports false when the gap is not a rewind case (the server is
// ahead, or the window no longer covers the expected sequence — acked
// events would be lost, which must surface as a sticky error instead).
func (c *IngestClient) rewindLocked(gap *ingestGapError) bool {
	expected := gap.expected
	if expected == 0 || expected > c.sent || expected < c.retainedFirst {
		return false
	}
	replay := c.retained[expected-c.retainedFirst:]
	merged := make([]provgraph.Event, 0, len(replay)+len(c.buf))
	merged = append(append(merged, replay...), c.buf...)
	c.buf = merged
	c.retained = c.retained[:expected-c.retainedFirst]
	c.sent = expected - 1
	return true
}

// retainLocked appends the just-acked batch to the replay window and
// trims it to the configured bound. Callers update c.sent first, so the
// invariant retainedFirst+len(retained)-1 == sent holds afterward.
func (c *IngestClient) retainLocked(batch []provgraph.Event) {
	limit := c.RetainEvents
	if limit == 0 {
		limit = DefaultRetainEvents
	}
	if limit < 0 {
		c.retained = nil
		c.retainedFirst = c.sent + 1
		return
	}
	c.retained = append(c.retained, batch...)
	if over := len(c.retained) - limit; over > 0 {
		c.retained = append([]provgraph.Event(nil), c.retained[over:]...)
		c.retainedFirst += uint64(over)
	}
}
