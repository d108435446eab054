package experiments

import (
	"reflect"
	"testing"

	"daesim/internal/sweep"
)

// TestFannedStudiesMatchSerial: the drivers that fan their points
// across the worker pool give the results a one-worker Context gives,
// and a fresh storeless Figure 7 costs a pinned number of simulations
// at any pool width: every curve probes one point at a time, and a
// probe its certified lower bound proves a miss is not simulated, so a
// change in the count means the probe path or the bound changed.
func TestFannedStudiesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ratio figure and seven studies on two fresh contexts")
	}
	const fig7Sims = 221
	studies := []struct {
		name string
		run  func(c *Context) (any, error)
	}{
		{"RatioFigure", func(c *Context) (any, error) { return c.RatioFigure("FLO52Q") }},
		{"Cutoffs", func(c *Context) (any, error) { return c.Cutoffs() }},
		{"BigWindow", func(c *Context) (any, error) { return c.BigWindow() }},
		{"ESWStudy", func(c *Context) (any, error) { return c.ESWStudy() }},
		{"RetireStudy", func(c *Context) (any, error) { return c.RetireStudy() }},
		{"Ablations", func(c *Context) (any, error) { return c.Ablations() }},
		{"ComplexityStudy", func(c *Context) (any, error) { return c.ComplexityStudy() }},
		{"PolicyStudy", func(c *Context) (any, error) { return c.PolicyStudy() }},
	}
	serial := NewContext()
	serial.Parallelism = 1
	// The shared context runs at the default width, GOMAXPROCS; a fresh
	// one at 3 fans out even on a one-CPU host.
	three := NewContext()
	three.Parallelism = 3
	for i, st := range studies {
		want, err := st.run(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Context{ctx(), three} {
			got, err := st.run(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Parallelism %d differs from Parallelism 1", st.name, c.Parallelism)
			}
		}
		if i == 0 {
			for _, c := range []*Context{serial, three} {
				if st := c.CacheStats(); st.Sims != fig7Sims || st.Uncacheable != 0 {
					t.Errorf("Parallelism %d: a fresh Figure 7 ran %d simulations and %d uncacheable, want %d and 0",
						c.Parallelism, st.Sims, st.Uncacheable, fig7Sims)
				}
			}
		}
	}
}

// TestPolicyStudyStoreTrafficMatchesSerial: on an empty store the
// fanned policy study simulates and writes exactly what a one-worker
// study does. Policies whose assignments coincide share store keys, so
// a workload's rows run in order and a later policy reads what an
// earlier one wrote; each distinct (assignment, point) simulates once.
func TestPolicyStudyStoreTrafficMatchesSerial(t *testing.T) {
	traffic := func(par int) (sweep.CacheStats, int64) {
		store, err := sweep.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		c := NewContext()
		c.Parallelism, c.Cache = par, store
		if _, err := c.PolicyStudy(); err != nil {
			t.Fatal(err)
		}
		return c.CacheStats(), store.Stats().Writes
	}
	want, writes := traffic(1)
	if want.Sims != writes {
		t.Fatalf("serial study simulated %d points and wrote %d", want.Sims, writes)
	}
	for _, par := range []int{0, 3} {
		if got, w := traffic(par); got != want || w != writes {
			t.Errorf("Parallelism %d: stats %+v and %d writes, want %+v and %d", par, got, w, want, writes)
		}
	}
}
