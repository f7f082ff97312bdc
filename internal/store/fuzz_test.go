package store

import (
	"bytes"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
)

// fuzzSnapshotSeed builds a small but fully featured snapshot (dead nodes,
// invocations, outputs, postings) as a structure-aware seed corpus entry.
func fuzzSnapshotSeed(t testing.TB) []byte {
	b := provgraph.NewBuilder()
	in := b.WorkflowInput("I1")
	inv := b.BeginInvocation("M_x", "x", 0)
	i1 := b.ModuleInput(inv, in)
	base := b.BaseTuple("C1")
	s1 := b.StateTuple(inv, base)
	j := b.Join(i1, s1)
	agg := b.Aggregate("SUM", []provgraph.AggContribution{
		{TupleProv: j, Value: nested.Int(4)},
	}, nested.Int(4))
	out := b.ModuleOutput(inv, j, agg)
	ov := provgraph.NewOverlay(b.G)
	ov.Delete(base)
	snap := &Snapshot{Graph: ov.Materialize(), Outputs: []RelationDump{{
		Execution: 0, Node: "x", Relation: "R",
		Tuples: []AnnotatedTuple{{Tuple: nested.NewTuple(nested.Int(1)), Prov: out, Mult: 1}},
	}}}
	return encodeV3(t, snap)
}

// FuzzLoadSnapshot asserts the snapshot reader never panics: arbitrary
// bytes either load or return an error.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add(fuzzSnapshotSeed(f)) // columnar v3
	f.Add(readFixture(f, "sample.v1.lpsk"))
	f.Add(readFixture(f, "sample.v2.lpsk"))
	f.Add([]byte("LPSK"))
	f.Add([]byte{'L', 'P', 'S', 'K', 2, 0xff, 0xff, 0xff})
	f.Add([]byte{'L', 'P', 'S', 'K', 3, 0, 0, 0})
	// v2 whose header claims 100M nodes: 8.9 GB if preallocated.
	f.Add([]byte(lyingLegacyHeader))
	// v3 with a flipped byte in the trailer and one in the footer region.
	badTrailer := fuzzSnapshotSeed(f)
	badTrailer[len(badTrailer)-1] ^= 0xff
	f.Add(badTrailer)
	badFooter := fuzzSnapshotSeed(f)
	badFooter[len(badFooter)-v3TrailerLen-5] ^= 0xff
	f.Add(badFooter)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A snapshot that loads must also survive the query layer's first
		// touches: stats and a re-serialization.
		snap.Graph.ComputeStats()
		var buf bytes.Buffer
		if werr := Write(&buf, snap); werr != nil {
			t.Fatalf("loaded snapshot failed to re-serialize: %v", werr)
		}
	})
}

// FuzzReplayEvents asserts the event decoder and replay never panic:
// arbitrary bytes either decode into a replayable stream or error out.
func FuzzReplayEvents(f *testing.F) {
	seed := func(firstSeq uint64, events []provgraph.Event) []byte {
		var buf bytes.Buffer
		if err := EncodeEventBatch(&buf, firstSeq, events); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(1, sampleEvents()))
	f.Add(seed(7, chainEvents(20)))
	f.Add([]byte("LPEV"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, events, err := DecodeEventBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		g, err := provgraph.Replay(events)
		if err != nil {
			return
		}
		g.ComputeStats()
	})
}
