package serve

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// TestConcurrentZoomsShareTheMemo: eight goroutines, each with its own
// session over one snapshot, zoom different module sets in and out and
// run /v1/zoom previews beside them. The concurrent phase runs first, so
// it is what races to publish the base's zoom plans; every goroutine's
// answers must equal the same script run serially afterwards. Run with
// -race.
func TestConcurrentZoomsShareTheMemo(t *testing.T) {
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 200, NumExec: 3, Seed: 7, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deal.lpsk")
	if err := store.Save(path, &store.Snapshot{Graph: run.Runner.Graph()}); err != nil {
		t.Fatal(err)
	}
	svc := NewService(nil)
	if err := svc.Registry().Register("deal", path); err != nil {
		t.Fatal(err)
	}
	modules := []string{"M_agg", "M_dealer1", "M_dealer2", "M_dealer3", "M_dealer4"}
	sets := [][]string{modules[:1], modules[1:3], modules[3:], modules[2:3], modules}

	// script is one goroutine's work: a preview, then a session zoom
	// round trip, of each module set in turn, and a nested stack.
	script := func(k int) ([]string, error) {
		sess, err := svc.CreateSession("deal")
		if err != nil {
			return nil, err
		}
		defer svc.CloseSession(sess.ID)
		var out []string
		for i := range sets {
			set := sets[(k+i)%len(sets)]
			preview, err := svc.Zoom(path, set...)
			if err != nil {
				return nil, err
			}
			zoomOut, err := svc.SessionZoom(sess.ID, SessionZoomRequest{Modules: set})
			if err != nil {
				return nil, err
			}
			nested, err := svc.SessionZoom(sess.ID, SessionZoomRequest{Modules: sets[(k+i+1)%len(sets)][:1]})
			if err != nil {
				nested = &SessionZoomResult{} // the module is in set: the zoom is refused
			} else if _, err := svc.SessionZoom(sess.ID, SessionZoomRequest{In: true}); err != nil {
				return nil, err
			}
			zoomIn, err := svc.SessionZoom(sess.ID, SessionZoomRequest{In: true})
			if err != nil {
				return nil, err
			}
			info, err := svc.SessionInfo(sess.ID)
			if err != nil {
				return nil, err
			}
			zoomOut.Session, nested.Session, zoomIn.Session = "", "", ""
			out = append(out, fmt.Sprintf("%+v %+v %+v %+v nodes=%d changes=%d zoomed=%v",
				*preview, *zoomOut, *nested, *zoomIn, info.Nodes, info.Changes, info.ZoomedOut))
		}
		return out, nil
	}

	const goroutines = 8
	concurrent := make([][]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for k := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[k], errs[k] = script(k)
		}()
	}
	wg.Wait()
	for k := range goroutines {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		want, err := script(k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(concurrent[k], want) {
			t.Errorf("goroutine %d: concurrent answers differ from a serial run:\n%v\n%v", k, concurrent[k], want)
		}
	}
}
