package sweep

import (
	"errors"
	"strings"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/machine"
)

// probePoint is an SWSM point of testRunner's suite with its certified
// lower bound and its simulated Cycles.
func probePoint(t *testing.T, r *Runner, w int) (Point, int64, int64) {
	t.Helper()
	pt := Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: 30}}
	lb, err := r.Suite.LowerBound(pt.Kind, pt.P)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Suite.Run(pt.Kind, pt.P)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || lb > res.Cycles {
		t.Fatalf("window %d: bound %d for %d cycles", w, lb, res.Cycles)
	}
	return pt, lb, res.Cycles
}

// TestProbePrunesAndPersistsBounds walks Probe's lookup order: a
// computed bound above the target is a miss that simulates nothing and
// is stored as a bound record; the L1 then answers below it, and a
// target at or above it simulates. A fresh runner over the same store
// reads the exact record before the bound record, and the bound record
// when that is all there is, computing no bound.
func TestProbePrunesAndPersistsBounds(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner(t)
	r.Store = store
	pt, lb, cycles := probePoint(t, r, 8)
	other, otherLB, _ := probePoint(t, r, 4)
	for i := 0; i < 2; i++ {
		res, got, err := r.Probe(pt, lb-1)
		if err != nil || res != nil || got != lb {
			t.Fatalf("probe %d below the bound: %v, bound %d, %v; want a certified miss at %d", i, res, got, err, lb)
		}
	}
	if _, _, err := r.Probe(other, otherLB-1); err != nil {
		t.Fatal(err)
	}
	if st, ss := r.Stats(), store.Stats(); st.Pruned != 3 || st.Bounds != 2 || st.Sims != 0 || ss.BoundWrites != 2 || ss.Writes != 0 {
		t.Fatalf("after three certified misses: runner %+v, store %+v", st, ss)
	}
	res, _, err := r.Probe(pt, lb)
	if err != nil || res == nil || res.Cycles != cycles {
		t.Fatalf("probe at the bound: %v, %v; want the simulated %d cycles", res, err, cycles)
	}
	if st := r.Stats(); st.Sims != 1 || st.Bounds != 2 {
		t.Fatalf("a probe at the bound: %+v, want 1 simulation and no new bound", st)
	}

	warm := testRunner(t)
	warm.Suite = r.Suite
	warm.Store = store
	if res, _, err := warm.Probe(pt, lb-1); err != nil || res == nil || res.Cycles != cycles {
		t.Fatalf("warm probe: %v, %v; want the stored result", res, err)
	}
	if res, got, err := warm.Probe(other, otherLB-1); err != nil || res != nil || got != otherLB {
		t.Fatalf("warm probe of a bound-only point: %v, bound %d, %v", res, got, err)
	}
	if st, ss := warm.Stats(), store.Stats(); st.StoreHits != 1 || st.Sims != 0 || st.Bounds != 0 || st.Pruned != 1 || ss.BoundHits != 1 {
		t.Fatalf("warm probes: runner %+v, store %+v", st, ss)
	}
}

// TestProbeHookedPrunes: a runner with a remote hook prunes as a local
// one does. A probe its bound proves a miss sends nothing; one below
// the bound travels as a one-point batch.
func TestProbeHookedPrunes(t *testing.T) {
	r := testRunner(t)
	pt, lb, cycles := probePoint(t, r, 8)
	var calls [][]Point
	r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		calls = append(calls, pts)
		res, err := r.Suite.Run(pts[0].Kind, pts[0].P)
		return []*engine.Result{res}, err
	}
	res, got, err := r.Probe(pt, lb-1)
	if err != nil || res != nil || got != lb || len(calls) != 0 {
		t.Fatalf("hooked probe below the bound: %v, bound %d, %v after %d remote calls; want a certified miss at %d", res, got, err, len(calls), lb)
	}
	if st := r.Stats(); st.Pruned != 1 || st.Bounds != 1 {
		t.Fatalf("hooked certified miss: %+v, want 1 pruned and 1 bound", st)
	}
	res, _, err = r.Probe(pt, lb)
	if err != nil || res == nil || res.Cycles != cycles || len(calls) != 1 || len(calls[0]) != 1 {
		t.Fatalf("hooked probe at the bound: %v, %v after remote calls %v; want the result through one one-point call", res, err, calls)
	}
}

// TestProbeBoundViolationFails: a result that comes out below the bound
// the runner holds fails loudly, naming the point and installing
// nothing, instead of leaving every search the bound pruned silently
// wrong: a local simulation, and a remote reply alike.
func TestProbeBoundViolationFails(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := testRunner(t)
		r.Store = store
		pt, lb, cycles := probePoint(t, r, 8)
		held := cycles + 10
		if hooked {
			// The store holds the true bound; the reply undercuts it.
			held = lb
			r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
				return []*engine.Result{{Cycles: lb - 1}}, nil
			}
		}
		store.PutBound(r.storeKey(pt), held)
		_, _, err = r.Probe(pt, held)
		if !errors.Is(err, ErrBoundViolated) || !strings.Contains(err.Error(), "w=8") {
			t.Fatalf("hooked=%v: probe over a bound above the returned cycles: %v, want ErrBoundViolated naming the point", hooked, err)
		}
		if _, hit := store.Get(r.storeKey(pt)); hit || store.Stats().Writes != 0 {
			t.Fatalf("hooked=%v: a result below its bound was installed: %+v", hooked, store.Stats())
		}
	}
}
