package experiments

import (
	"reflect"
	"testing"
)

// TestFannedStudiesMatchSerial: the drivers that fan their points
// across the worker pool give the results a one-worker Context gives,
// and a fresh storeless Figure 7 costs a pinned number of simulations
// at any pool width: every search probes one point at a time, so a
// change in the count means the probe path changed.
func TestFannedStudiesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ratio figure and six studies on two fresh contexts")
	}
	const fig7Sims = 535
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
