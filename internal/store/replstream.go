package store

import (
	"fmt"
	"os"
	"path/filepath"

	"lipstick/internal/provgraph"
)

// Replication read surface of the WAL: a follower streams the durable
// event suffix of a primary's log without disturbing the writer. The
// reader works from the directory alone — segment scans plus read-only
// readSegment passes — so it shares no file handle or buffer with the
// appending side; the only coordination is the log's atomic sequence
// counters. A torn tail (bytes the writer has flushed mid-record) and the
// active segment's zero tail are tolerated non-destructively: the
// consistent prefix is returned and the caller polls again.

// CompactedError reports that the requested WAL suffix no longer exists:
// a checkpoint has compacted the log past the requested position. The
// caller must restart from the checkpoint (see CheckpointPath) instead of
// the event stream.
type CompactedError struct {
	// CheckpointSeq is the sequence the newest checkpoint covers; events
	// 1..CheckpointSeq live only inside it.
	CheckpointSeq uint64
}

// Error implements error.
func (e *CompactedError) Error() string {
	return fmt.Sprintf("store: wal events compacted into checkpoint %d; restart from the checkpoint", e.CheckpointSeq)
}

// EventsSince returns up to max (<= 0: unbounded) durable events with
// sequences afterSeq+1, afterSeq+2, ..., in order. An empty result means
// the caller is caught up. When a checkpoint has compacted the requested
// suffix away — including mid-read, when a segment vanishes under the
// scan — EventsSince returns *CompactedError and the caller re-seeds
// from the checkpoint.
//
// EventsSince is safe to call concurrently with the writer: the log's
// sequence advances only after a commit's write+fsync, so every event at
// or below it is fully on disk.
func (l *Log) EventsSince(afterSeq uint64, max int) ([]provgraph.Event, error) {
	durable := l.seq.Load()
	if afterSeq >= durable {
		return nil, nil
	}
	if afterSeq < l.ckptSeq.Load() {
		return nil, &CompactedError{CheckpointSeq: l.ckptSeq.Load()}
	}
	segs, _, err := scanLogDir(l.dir)
	if err != nil {
		return nil, err
	}
	var out []provgraph.Event
	next := afterSeq
	for i, first := range segs {
		if i+1 < len(segs) && segs[i+1] <= next+1 {
			continue // a later segment starts at or before the cursor
		}
		if first > next+1 {
			// A gap below the cursor only appears when compaction deleted
			// the covering segment between the checkpoint read above and
			// the directory scan; re-seed from the (newer) checkpoint.
			return nil, &CompactedError{CheckpointSeq: l.ckptSeq.Load()}
		}
		// A torn or zero tail (torn=true) just ends the walk early; the
		// follower polls again once the writer commits more records.
		events, _, _, _, rerr := readSegment(filepath.Join(l.dir, segName(first)), first, next)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				// The segment was compacted away after the scan listed it.
				return nil, &CompactedError{CheckpointSeq: l.ckptSeq.Load()}
			}
			return nil, fmt.Errorf("store: streaming wal segment %s: %w", segName(first), rerr)
		}
		for j := range events {
			if next >= durable || (max > 0 && len(out) >= max) {
				return out, nil
			}
			out = append(out, events[j])
			next++
		}
	}
	return out, nil
}

// CheckpointFileName returns the directory entry name of a checkpoint
// covering seq — what a follower seeds its local WAL directory with so
// OpenLog recovers straight from the downloaded snapshot.
func CheckpointFileName(seq uint64) string { return ckptName(seq) }

// CheckpointPath returns the newest checkpoint file's path and the
// sequence it covers; ok is false when the log has never checkpointed.
// The file is written atomically (temp + rename) and never modified
// afterwards, so the caller may stream it at leisure; only a newer
// checkpoint can delete it, which the caller detects as a read error and
// handles by asking again.
func (l *Log) CheckpointPath() (path string, seq uint64, ok bool) {
	seq = l.ckptSeq.Load()
	if seq == 0 {
		return "", 0, false
	}
	return filepath.Join(l.dir, ckptName(seq)), seq, true
}
