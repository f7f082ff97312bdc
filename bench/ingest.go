package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

const (
	// ingestWriters is the number of closed-loop writers, one stream each.
	ingestWriters = 2
	// ingestBatch is the events per Append.
	ingestBatch = 512
	// recoverReps is how often the crash copy is recovered.
	recoverReps = 9
)

// durableOptions is the flush policy of `lipstick serve -live`: group
// commit with the default gather window and cap, fsync on.
func durableOptions(ckptEvery uint64) []core.LiveOption {
	return []core.LiveOption{
		core.WithLogOptions(store.WithGroupCommit(store.DefaultGroupCommitDelay, store.DefaultGroupCommitBytes)),
		core.WithCheckpointEvery(ckptEvery),
	}
}

// ingestWorkload replays one captured event stream into fresh durable
// live graphs, two closed-loop writers side by side, no readers: the
// write path alone, background checkpoints included.
type ingestWorkload struct {
	c         *config
	events    []provgraph.Event
	batches   []batch
	ref       *provgraph.Graph
	ckptEvery uint64
	streams   atomic.Int64 // directories handed out

	storedBytes int64 // directory size of one finished, closed stream
	// Summed over the untraced windows' streams:
	commits, commitBatches, checkpoints int64
	stalls                              []float64 // ack latency (us) of appends that took a checkpoint
}

func (w *ingestWorkload) primary() (string, string) { return "ack", "ack" }

func (w *ingestWorkload) setup(c *config) error {
	w.c = c
	_, events, err := capture(c.scale, c.seed)
	if err != nil {
		return err
	}
	w.events = events
	w.batches = batches(events, ingestBatch)
	if w.ref, err = provgraph.Replay(events); err != nil {
		return err
	}
	// Each stream checkpoints at least three times.
	w.ckptEvery = uint64(len(events) / 4)
	// Warm-up: one whole stream, untimed.
	s, err := w.stream(nil)
	if err != nil {
		return err
	}
	if !s.equal {
		return fmt.Errorf("warm-up stream differs from a replay of its events")
	}
	return nil
}

func (w *ingestWorkload) teardown() {}

func (w *ingestWorkload) newDir() string {
	return filepath.Join(w.c.workDir, fmt.Sprintf("stream-%d", w.streams.Add(1)))
}

// streamOut is what ingesting one whole stream produced.
type streamOut struct {
	acks        []float64 // per-batch ack latency, us
	done        time.Time // when the last batch was acknowledged
	equal       bool      // the finished graph equals a replay of the events
	checkpoints int64
	stalls      []float64 // ack latency (us) of the appends that took a checkpoint
	stats       core.PipelineStats
	dirBytes    int64 // directory size after Close
}

// stream ingests the whole capture into a fresh durable live graph,
// batch by batch, each Append waiting for its durable ack.
func (w *ingestWorkload) stream(tr *tracer) (streamOut, error) {
	var out streamOut
	dir := w.newDir()
	lg, err := core.OpenLiveGraph(filepath.Base(dir), dir, durableOptions(w.ckptEvery)...)
	if err != nil {
		return out, err
	}
	out.acks = make([]float64, 0, len(w.batches))
	lastCkpt := uint64(0)
	for k, b := range w.batches {
		var aerr error
		d := tr.sampled(k, "core.LiveGraph.Append", func() { _, aerr = lg.Append(b.first, b.events) })
		if aerr != nil {
			lg.Close()
			return out, aerr
		}
		us := micros(d)
		out.acks = append(out.acks, us)
		if ck := lg.CheckpointSeq(); ck != lastCkpt {
			lastCkpt = ck
			out.checkpoints++
			out.stalls = append(out.stalls, us)
		}
	}
	out.done = time.Now()
	_ = lg.Read(func(qp *core.QueryProcessor) error {
		out.equal = qp.Graph().StructurallyEqual(w.ref)
		return nil
	})
	out.stats = lg.PipelineStats()
	if err := lg.Close(); err != nil {
		return out, err
	}
	if out.dirBytes, err = dirBytes(dir); err != nil {
		return out, err
	}
	return out, os.RemoveAll(dir)
}

func (w *ingestWorkload) window(i int, tr *tracer, r *result) (window, error) {
	ws := window{lat: map[string][]float64{}}
	outs := make([]streamOut, ingestWriters)
	errs := make([]error, ingestWriters)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < ingestWriters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			outs[k], errs[k] = w.stream(tr)
		}(k)
	}
	wg.Wait()
	for k, s := range outs {
		if errs[k] != nil {
			return ws, errs[k]
		}
		// The window runs to the last ack; the checks after it are untimed.
		ws.busy = max(ws.busy, s.done.Sub(start))
		ws.lat["ack"] = append(ws.lat["ack"], s.acks...)
		r.attempted += int64(len(s.acks))
		r.check(s.equal, "window %d stream %d is not structurally equal to a replay of its events", i, k)
		r.check(s.checkpoints >= 3, "window %d stream %d checkpointed %d times, want at least 3", i, k, s.checkpoints)
		if tr == nil {
			w.storedBytes = s.dirBytes
			w.commits += s.stats.GroupCommits
			w.commitBatches += s.stats.GroupBatches
			w.checkpoints += s.checkpoints
			w.stalls = append(w.stalls, s.stalls...)
		}
	}
	ws.ops = float64(ingestWriters * len(w.events))
	ws.unitCostUS = mean(ws.lat["ack"])
	return ws, nil
}

func (w *ingestWorkload) finish(c *config, plain []window, tr *tracer, r *result) error {
	r.detail["ingest_events_s"] = r.e2e["ops_s"]
	r.detail["ingest_ack_p50_ms"] = r.e2e["p50_us"] / 1e3
	r.e2e["stored_bytes_per_node"] = float64(w.storedBytes) / float64(w.ref.NumNodes())

	crashDir, acked, err := w.crashCopy()
	if err != nil {
		return err
	}
	var recovers []float64
	var recoveredSeq uint64
	for i := 0; i < recoverReps; i++ {
		dir := w.newDir()
		if err := copyDir(crashDir, dir); err != nil {
			return err
		}
		t0 := time.Now()
		lg, err := core.OpenLiveGraph("recovered", dir, durableOptions(w.ckptEvery)...)
		if err != nil {
			return fmt.Errorf("recovering the crash copy: %w", err)
		}
		found := lg.ReadView().QP.FindNodes(core.NodeFilter{Types: []provgraph.Type{provgraph.TypeInvocation}})
		recovers = append(recovers, time.Since(t0).Seconds())
		recoveredSeq = lg.Seq()
		r.check(recoveredSeq >= acked && len(found) > 0, "recovery %d reached seq %d, acked %d, found %d invocations", i, recoveredSeq, acked, len(found))
		if i == 0 {
			want, err := provgraph.Replay(w.events[:recoveredSeq])
			if err != nil {
				return err
			}
			equal := false
			_ = lg.Read(func(qp *core.QueryProcessor) error {
				equal = qp.Graph().StructurallyEqual(want)
				return nil
			})
			r.check(equal, "recovered graph differs from a replay of events[:%d]", recoveredSeq)
		}
		if err := lg.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	r.detail["recover_s"] = median(recovers)
	if tr != nil {
		if err := w.probes(tr, r, plain, crashDir); err != nil {
			return err
		}
	}
	return os.RemoveAll(crashDir)
}

// crashCopy copies one stream's directory while appends are in flight,
// as a crash at that instant would leave it, and returns the copy and
// the sequence that was acknowledged before the copy began. The copy is
// started just after a checkpoint, so the next one (which deletes the
// segments it covers) is a quarter of the stream away.
func (w *ingestWorkload) crashCopy() (string, uint64, error) {
	for attempt := 0; ; attempt++ {
		dir, copyTo := w.newDir(), w.newDir()
		lg, err := core.OpenLiveGraph(filepath.Base(dir), dir, durableOptions(w.ckptEvery)...)
		if err != nil {
			return "", 0, err
		}
		var acked atomic.Uint64
		writerErr := make(chan error, 1)
		go func() {
			for _, b := range w.batches {
				if _, err := lg.Append(b.first, b.events); err != nil {
					writerErr <- err
					return
				}
				acked.Store(b.first + uint64(len(b.events)) - 1)
			}
			writerErr <- nil
		}()
		target := 2*w.ckptEvery + ingestBatch
		for acked.Load() < target && acked.Load() < uint64(len(w.events)) {
			time.Sleep(100 * time.Microsecond)
		}
		at := acked.Load()
		copyErr := copyDir(dir, copyTo)
		werr := <-writerErr
		if err := lg.Close(); err != nil && werr == nil {
			werr = err
		}
		if rmErr := os.RemoveAll(dir); rmErr != nil && werr == nil {
			werr = rmErr
		}
		if werr != nil {
			return "", 0, werr
		}
		if copyErr == nil {
			return copyTo, at, nil
		}
		// A checkpoint deleted a segment under the copy: not a state a
		// crash can leave. Try again.
		if !errors.Is(copyErr, fs.ErrNotExist) || attempt == 4 {
			return "", 0, copyErr
		}
		if err := os.RemoveAll(copyTo); err != nil {
			return "", 0, err
		}
	}
}

// probes times the write path's layers on their own.
func (w *ingestWorkload) probes(tr *tracer, r *result, plain []window, crashDir string) error {
	n := float64(len(w.events))

	var encRates, decRates []float64
	var wire int
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		d := tr.root("store.EncodeEventBatch", func() {
			for _, b := range w.batches {
				_ = store.EncodeEventBatch(&buf, b.first, b.events)
			}
		})
		encRates = append(encRates, n/d.Seconds())
		wire = buf.Len()
		rd := bytes.NewReader(buf.Bytes())
		decoded := 0
		d = tr.root("store.DecodeEventBatch", func() {
			for rd.Len() > 0 {
				_, evs, err := store.DecodeEventBatch(rd)
				if err != nil {
					return
				}
				decoded += len(evs)
			}
		})
		r.check(decoded == len(w.events), "decoded %d of %d events", decoded, len(w.events))
		decRates = append(decRates, n/d.Seconds())
	}
	r.layer["store.encode_events_s"] = median(encRates)
	r.layer["store.decode_events_s"] = median(decRates)
	r.layer["store.wire_bytes_per_event"] = float64(wire) / n

	// The WAL alone: group-commit appends, no graph.
	walDir := w.newDir()
	log, _, err := store.OpenLog(walDir, store.WithGroupCommit(store.DefaultGroupCommitDelay, store.DefaultGroupCommitBytes))
	if err != nil {
		return err
	}
	var aerr error
	d := tr.root("store.Log.Append", func() {
		for _, b := range w.batches {
			if aerr = log.Append(b.events); aerr != nil {
				return
			}
		}
	})
	if aerr != nil {
		log.Close()
		return aerr
	}
	r.layer["store.wal_append_events_s"] = n / d.Seconds()
	if err := log.Close(); err != nil {
		return err
	}
	walBytes, err := dirBytes(walDir)
	if err != nil {
		return err
	}
	r.layer["store.wal_bytes_per_event"] = float64(walBytes) / n
	if err := os.RemoveAll(walDir); err != nil {
		return err
	}
	streams := float64(len(plain) * ingestWriters)
	r.layer["store.batches_per_commit"] = float64(w.commitBatches) / float64(max(w.commits, 1))
	r.layer["store.fsyncs"] = float64(w.commits) / streams
	r.layer["store.checkpoints"] = float64(w.checkpoints) / streams
	r.layer["store.checkpoint_stall_ms"] = (median(w.stalls) - kindPct(plain, "ack", 50)) / 1e3
	r.layer["ingest.ack_p99_ms"] = kindPct(plain, "ack", 99) / 1e3

	// Apply + live index in memory, no WAL; and pure graph construction.
	var applyRates []float64
	for i := 0; i < 3; i++ {
		mem := core.NewLiveGraph("mem", core.WithIngestQueueDepth(-1))
		d := tr.root("core.LiveGraph.Append/in-memory", func() { aerr = appendAll(mem, w.batches) })
		if aerr != nil {
			return aerr
		}
		applyRates = append(applyRates, n/d.Seconds())
	}
	r.layer["core.apply_events_s"] = median(applyRates)
	r.layer["provgraph.replay_events_s"] = replayRate(tr, w.events)

	// One explicit checkpoint of a fully ingested stream.
	ckDir := w.newDir()
	lg, err := core.OpenLiveGraph("checkpoint", ckDir, durableOptions(0)...)
	if err != nil {
		return err
	}
	if err := appendAll(lg, w.batches); err != nil {
		lg.Close()
		return err
	}
	var cerr error
	d = tr.root("core.LiveGraph.Checkpoint", func() { cerr = lg.Checkpoint() })
	if cerr != nil {
		lg.Close()
		return cerr
	}
	r.layer["store.checkpoint_ms"] = millis(d)
	if err := lg.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(ckDir); err != nil {
		return err
	}

	// WAL recovery of the crash copy, without the graph rebuild.
	recDir := w.newDir()
	if err := copyDir(crashDir, recDir); err != nil {
		return err
	}
	var rec *store.Recovery
	var rlog *store.Log
	d = tr.root("store.OpenLog/recover", func() { rlog, rec, err = store.OpenLog(recDir) })
	if err != nil {
		return err
	}
	r.layer["store.wal_recover_ms"] = millis(d)
	r.layer["store.recovered_tail_events"] = float64(len(rec.Tail))
	if err := rlog.Close(); err != nil {
		return err
	}
	return os.RemoveAll(recDir)
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// copyDir copies the regular files of src into a new directory dst.
// Files are copied as they are at the moment they are read, so a copy
// taken under a running writer may end in a torn record, as a crash
// would leave it. In-progress checkpoint temporaries are skipped, as
// recovery would discard them.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
