package experiments

import (
	"fmt"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/sweep"
)

// AblationPoint is one measured configuration of an ablation study.
type AblationPoint struct {
	Workload string
	Label    string
	Cycles   int64
}

// AblationResult is one ablation study (A1..A5 in DESIGN.md §6).
type AblationResult struct {
	ID          string
	Description string
	Points      []AblationPoint
}

// ablationWindow and ablationMD fix the operating point for ablations:
// a realistic window in the paper's range and the headline differential.
const (
	ablationWindow = 64
	ablationMD     = MDFull
)

// Ablations runs all design-choice studies on the figure workloads.
// Every study varies DM parameters only, a memory model included: the
// points are listed first and each workload's share runs as one
// Runner.RunAll, so they fan out across the pool.
func (c *Context) Ablations() ([]*AblationResult, error) {
	figNames := []string{"FLO52Q", "MDG", "TRACK"}
	base := machine.Params{Window: ablationWindow, MD: ablationMD}
	type listed struct {
		study    *AblationResult
		workload string
		label    string
		p        machine.Params
	}
	var pts []listed

	// A1: issue-width split. The combined width stays 9; the split moves.
	a1 := &AblationResult{ID: "A1", Description: "DM issue-width split (combined width 9, window 64, MD=60)"}
	for _, name := range figNames {
		for _, split := range [][2]int{{2, 7}, {3, 6}, {4, 5}, {5, 4}, {6, 3}} {
			p := base
			p.AUWidth, p.DUWidth = split[0], split[1]
			pts = append(pts, listed{a1, name, fmt.Sprintf("AU=%d/DU=%d", split[0], split[1]), p})
		}
	}

	// A2: inter-unit copy latency. TRACK has copies on its critical path;
	// FLO52Q is the copy-free control.
	a2 := &AblationResult{ID: "A2", Description: "inter-unit copy latency (window 64, MD=60)"}
	for _, name := range []string{"TRACK", "FLO52Q"} {
		for _, lat := range []int{1, 2, 4, 8} {
			p := base
			p.CopyLat = lat
			pts = append(pts, listed{a2, name, fmt.Sprintf("copy=%d", lat), p})
		}
	}

	// A3: fire-and-forget sends vs slot-held sends. Holding slots removes
	// the AU's ability to slip ahead — the essence of decoupling.
	a3 := &AblationResult{ID: "A3", Description: "fire-and-forget vs slot-held sends (DM, window 64, MD=60)"}
	for _, name := range figNames {
		for _, hold := range []bool{false, true} {
			label := "fire-and-forget"
			if hold {
				label = "slot-held"
			}
			p := base
			p.HoldSendSlots = hold
			pts = append(pts, listed{a3, name, label, p})
		}
	}

	// A4: decoupled-memory capacity. The default is QueueFactor*Window;
	// the sweep shows capacity bounding the AU's useful run-ahead.
	a4 := &AblationResult{ID: "A4", Description: "decoupled-memory capacity (DM, window 64, MD=60)"}
	for _, name := range figNames {
		for _, q := range []int{8, 16, 32, 64, 128, 256} {
			p := base
			p.MemQueue = q
			pts = append(pts, listed{a4, name, fmt.Sprintf("queue=%d", q), p})
		}
		p := base
		p.MemQueue = machine.Unbounded
		pts = append(pts, listed{a4, name, "queue=inf", p})
	}

	// A5: the bypass buffer (the paper's future work): a line-grain LRU
	// buffer in the decoupled memory that captures temporal/spatial
	// locality exposed by decoupling. Its label reports the hit rate the
	// run's Result carries.
	a5 := &AblationResult{ID: "A5", Description: "bypass buffer in the decoupled memory (DM, window 64, MD=60)"}
	for _, name := range figNames {
		pts = append(pts, listed{a5, name, "none", base})
		for _, lines := range []int{16, 64, 256} {
			p := base
			var err error
			if p.Mem, err = memsys.BypassSpec(lines); err != nil {
				return nil, err
			}
			pts = append(pts, listed{a5, name, fmt.Sprintf("bypass=%d lines", lines), p})
		}
	}

	results := make([]*engine.Result, len(pts))
	for _, name := range figNames {
		var idx []int
		var batch []sweep.Point
		for i, lp := range pts {
			if lp.workload == name {
				idx = append(idx, i)
				batch = append(batch, sweep.Point{Kind: machine.DM, P: lp.p})
			}
		}
		rs, err := c.runAll(name, batch)
		if err != nil {
			return nil, err
		}
		for j, i := range idx {
			results[i] = rs[j]
		}
	}
	for i, lp := range pts {
		label := lp.label
		if lp.p.Mem.Kind == memsys.BypassModel {
			label += fmt.Sprintf(" (hit %.0f%%)", 100*fraction(results[i].MemHits, results[i].Fills))
		}
		lp.study.Points = append(lp.study.Points, AblationPoint{Workload: lp.workload, Label: label, Cycles: results[i].Cycles})
	}
	return []*AblationResult{a1, a2, a3, a4, a5}, nil
}

// fraction returns n/total, or 0 when total is 0.
func fraction(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}
