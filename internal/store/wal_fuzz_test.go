package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// segmentHeader is the header of segment wal-<first>.
func segmentHeader(first uint64) []byte {
	return binary.AppendUvarint(append(append([]byte(nil), walMagic...), walVersion), first)
}

// lyingLengthSegment is a segment header followed by one record length
// of maxLen (2^28) and nothing else.
func lyingLengthSegment(first uint64) []byte {
	return binary.AppendUvarint(segmentHeader(first), maxLen)
}

// TestWALLyingRecordLengthIsTorn: a record length that claims 256 MiB
// in a segment of a few bytes is a torn tail, found without reserving
// the claimed payload first.
func TestWALLyingRecordLengthIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), segName(1))
	if err := os.WriteFile(path, lyingLengthSegment(1), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events, lastSeq, goodLen, torn, err := readSegment(path, 1, 0)
	runtime.ReadMemStats(&after)
	if err != nil || !torn || len(events) != 0 || lastSeq != 0 || goodLen != int64(len(segmentHeader(1))) {
		t.Fatalf("readSegment = %d events, last %d, good %d, torn %v, %v; want a torn tail after the header",
			len(events), lastSeq, goodLen, torn, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a %d-byte segment allocated %d bytes", len(lyingLengthSegment(1)), got)
	}
}

// TestReadNAllocatesOnce: a length up to capHint's bound costs one
// allocation of exactly that many bytes, as a plain make did.
func TestReadNAllocatesOnce(t *testing.T) {
	for _, n := range []int{1, 100, 4096} {
		data := bytes.Repeat([]byte{7}, n)
		r := bytes.NewReader(data)
		var got []byte
		allocs := testing.AllocsPerRun(100, func() {
			r.Reset(data)
			var err error
			if got, err = readN(r, uint64(n)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 || len(got) != n || cap(got) != n {
			t.Errorf("readN(%d): %.0f allocations, len %d, cap %d; want 1 of %d bytes", n, allocs, len(got), cap(got), n)
		}
	}
}

// FuzzWALSegment feeds arbitrary bytes as the newest segment of a log,
// behind one valid segment. OpenLog recovers the valid segment and a
// prefix of the newest one, or returns an error; it never panics. On the
// recovered log, EventsSince(0) returns exactly the recovered tail.
func FuzzWALSegment(f *testing.F) {
	const valid = 20
	events := chainEvents(valid + 10)
	recs, err := EncodeRecords(events[valid:])
	if err != nil {
		f.Fatal(err)
	}
	next := append(segmentHeader(valid+1), recs.buf...)
	recs.Recycle()
	f.Add(next)
	f.Add(next[:len(next)-3])                   // a torn last record
	f.Add(append(next, make([]byte, 64)...))    // a zero tail
	f.Add(lyingLengthSegment(valid + 1))        // a length claiming 256 MiB
	f.Add(segmentHeader(valid + 1)[:3])         // a header cut short
	f.Add(append(segmentHeader(valid+2), 0x01)) // a header naming the wrong sequence
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeSegment(t, dir, 1, events[:valid])
		if err := os.WriteFile(filepath.Join(dir, segName(valid+1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := OpenLog(dir, WithFsync(false))
		if err != nil {
			return
		}
		defer l.Close()
		if rec.CheckpointSeq != 0 || rec.LastSeq != uint64(len(rec.Tail)) || len(rec.Tail) < valid {
			t.Fatalf("recovered %d events to seq %d; want the %d valid ones and a prefix of the rest",
				len(rec.Tail), rec.LastSeq, valid)
		}
		for i, ev := range rec.Tail[:valid] {
			if ev != events[i] {
				t.Fatalf("valid event %d recovered as %+v, want %+v", i+1, ev, events[i])
			}
		}
		got, err := l.EventsSince(0, 0)
		if err != nil {
			t.Fatalf("EventsSince(0): %v", err)
		}
		if len(got) != len(rec.Tail) {
			t.Fatalf("EventsSince(0) returned %d events, recovery %d", len(got), len(rec.Tail))
		}
		for i := range got {
			if got[i] != rec.Tail[i] {
				t.Fatalf("EventsSince event %d is %+v, recovery has %+v", i+1, got[i], rec.Tail[i])
			}
		}
	})
}
