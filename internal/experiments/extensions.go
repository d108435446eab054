package experiments

// Extension studies beyond the paper's evaluation, implementing its
// stated future work (§7): the effect of code expansion on the DM and
// SWSM (C4) and the comparison of code partitions on the DM (P1); plus
// two model-sensitivity studies: in-order retirement (A6) and a
// two-level cache hierarchy in place of the fixed differential (A7).

import (
	"fmt"
	"io"

	"daesim/internal/isa"
	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/metrics"
	"daesim/internal/partition"
	"daesim/internal/plot"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// ExpansionRow reports code expansion for one workload.
type ExpansionRow struct {
	Name string
	// TraceLen is the architecture-neutral instruction count.
	TraceLen int
	// DMOps and SWSMOps are machine-operation counts after lowering.
	DMOps, SWSMOps int
	// Copies counts DM inter-unit copies (both directions).
	Copies int
	// DMCycles and SWCycles are at the standard operating point
	// (window 64, MD=60), to relate expansion to performance.
	DMCycles, SWCycles int64
}

// ExpansionResult is the code-expansion study (C4).
type ExpansionResult struct {
	Rows []ExpansionRow
}

// CodeExpansion measures how much each lowering expands the instruction
// stream, the paper's first future-work question. Every op issues once,
// so the op and copy counts are read from the two runs at the standard
// operating point, and a row served from the store lowers nothing.
func (c *Context) CodeExpansion() (*ExpansionResult, error) {
	res := &ExpansionResult{}
	for _, spec := range workloads.Catalog() {
		r, err := c.Runner(spec.Name)
		if err != nil {
			return nil, err
		}
		dm, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: ablationWindow, MD: ablationMD}})
		if err != nil {
			return nil, err
		}
		sw, err := r.Run(sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: ablationWindow, MD: ablationMD}})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExpansionRow{
			Name:     spec.Name,
			TraceLen: r.Suite.Trace.Len(),
			DMOps:    dm.Ops,
			SWSMOps:  sw.Ops,
			Copies:   dm.Copies(),
			DMCycles: dm.Cycles,
			SWCycles: sw.Cycles,
		})
	}
	return res, nil
}

// Render writes the code-expansion study as a table.
func (e *ExpansionResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "trace", "DM ops", "DM exp", "SWSM ops", "SWSM exp", "copies", "DM cyc", "SWSM cyc"}}
	for _, r := range e.Rows {
		rows = append(rows, []string{
			r.Name, fmt.Sprintf("%d", r.TraceLen),
			fmt.Sprintf("%d", r.DMOps), fmt.Sprintf("%.2f", float64(r.DMOps)/float64(r.TraceLen)),
			fmt.Sprintf("%d", r.SWSMOps), fmt.Sprintf("%.2f", float64(r.SWSMOps)/float64(r.TraceLen)),
			fmt.Sprintf("%d", r.Copies),
			fmt.Sprintf("%d", r.DMCycles), fmt.Sprintf("%d", r.SWCycles),
		})
	}
	tbl := plot.Table{Title: "C4: code expansion (window 64, MD=60)", Rows: rows}
	return tbl.Render(w)
}

// PolicyRow reports one (workload, policy) pair.
type PolicyRow struct {
	Name     string
	Policy   partition.Policy
	AUOps    int
	DUOps    int
	Copies   int
	Cycles0  int64 // MD=0, window 64
	Cycles60 int64 // MD=60, window 64
}

// PolicyResult is the partition-policy study (P1).
type PolicyResult struct {
	Rows []PolicyRow
}

// PolicyStudy compares the classic all-integer-AU partition against the
// slice-only and balanced partitions, the paper's second future-work
// question (static vs alternative partitions of the code). Rows under the
// context's own policy run on the context's workload runner, sharing its
// L1, store traffic and RemoteBatch hook with every other experiment. Rows
// under the other policies run on detached runners over
// Suite.Repartition, which redoes only the unit assignment and shares
// the runner's trace, address slice and SWSM program. They take the
// context's store and RemoteBatch hook, bound to their own fingerprint,
// which covers the partition: these points persist in the shared store
// and run on a fleet like any other. The op counts come from the
// assignment and the copy count from the MD=60 run, so a row served
// from the store lowers nothing.
//
// The seven workloads fan out across the pool; each runs its policies in
// order. Policies whose assignments coincide share a fingerprint, so a
// later one reads the points an earlier one stored: run side by side,
// both would miss and simulate, and the study's simulations and store
// writes would depend on timing.
func (c *Context) PolicyStudy() (*PolicyResult, error) {
	specs, pols := workloads.Catalog(), partition.Policies()
	res := &PolicyResult{Rows: make([]PolicyRow, len(specs)*len(pols))}
	if err := sweep.ForEach(c.Parallelism, len(specs), func(i int) error {
		base, err := c.Runner(specs[i].Name)
		if err != nil {
			return err
		}
		for j, pol := range pols {
			if res.Rows[i*len(pols)+j], err = c.policyRow(base, specs[i].Name, pol); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// policyRow measures workload name under pol. base is the context's
// runner for the workload; a row under another policy runs on a
// detached runner over base's suite repartitioned.
func (c *Context) policyRow(base *sweep.Runner, name string, pol partition.Policy) (PolicyRow, error) {
	r := base
	if pol != c.Policy {
		suite, err := base.Suite.Repartition(pol)
		if err != nil {
			return PolicyRow{}, err
		}
		r = c.newRunner(name, suite)
	}
	r0, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: ablationWindow, MD: MDZero}})
	if err != nil {
		return PolicyRow{}, err
	}
	r60, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: ablationWindow, MD: ablationMD}})
	if err != nil {
		return PolicyRow{}, err
	}
	if r != base {
		c.addStats(r.Stats())
	}
	asg := r.Suite.Assignment()
	return PolicyRow{
		Name: name, Policy: pol,
		AUOps: asg.OpsAU, DUOps: asg.OpsDU,
		Copies:  r60.Copies(),
		Cycles0: r0.Cycles, Cycles60: r60.Cycles,
	}, nil
}

// Render writes the policy study as a table.
func (p *PolicyResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "policy", "AU ops", "DU ops", "copies", "cycles md=0", "cycles md=60"}}
	for _, r := range p.Rows {
		rows = append(rows, []string{
			r.Name, r.Policy.String(),
			fmt.Sprintf("%d", r.AUOps), fmt.Sprintf("%d", r.DUOps), fmt.Sprintf("%d", r.Copies),
			fmt.Sprintf("%d", r.Cycles0), fmt.Sprintf("%d", r.Cycles60),
		})
	}
	tbl := plot.Table{Title: "P1: partition policies on the DM (window 64)", Rows: rows}
	return tbl.Render(w)
}

// RetireRow compares slot-reclamation policies for one configuration.
type RetireRow struct {
	Name              string
	Kind              machine.Kind
	Window            int
	Complete, InOrder int64
}

// RetireResult is the retirement-policy study (A6). The paper does not
// specify its simulator's window-slot accounting; this study bounds how
// much that choice matters. Both machines default to in-order
// (machine.RetireInOrder, the zero value; this is what restores the
// paper's C2 large-window ordering — see EXPERIMENTS.md), so the study
// runs both policies on both machines.
type RetireResult struct {
	MD   int
	Rows []RetireRow
}

// RetireStudy compares completion-time against in-order slot reclamation
// on both machines.
func (c *Context) RetireStudy() (*RetireResult, error) {
	res := &RetireResult{MD: ablationMD}
	for _, name := range workloads.FigureNames() {
		// Each configuration is a (free-at-complete, in-order) point pair.
		var pts []sweep.Point
		for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
			for _, w := range []int{64, 256, 1000} {
				for _, ret := range []machine.RetirePolicy{machine.RetireAtComplete, machine.RetireInOrder} {
					pts = append(pts, sweep.Point{Kind: kind, P: machine.Params{Window: w, MD: ablationMD, Retire: ret}})
				}
			}
		}
		results, err := c.runAll(name, pts)
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(pts); i += 2 {
			res.Rows = append(res.Rows, RetireRow{
				Name: name, Kind: pts[i].Kind, Window: pts[i].P.Window,
				Complete: results[i].Cycles, InOrder: results[i+1].Cycles,
			})
		}
	}
	return res, nil
}

// Render writes the retirement study as a table.
func (r *RetireResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "machine", "window", "free-at-complete", "in-order retire", "penalty"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, row.Kind.String(), fmt.Sprintf("%d", row.Window),
			fmt.Sprintf("%d", row.Complete), fmt.Sprintf("%d", row.InOrder),
			fmt.Sprintf("%.2fx", float64(row.InOrder)/float64(row.Complete)),
		})
	}
	tbl := plot.Table{Title: fmt.Sprintf("A6: window-slot reclamation policy, MD=%d", r.MD), Rows: rows}
	return tbl.Render(w)
}

// CacheRow reports one workload under the cache hierarchy.
type CacheRow struct {
	Name     string
	Kind     machine.Kind
	Fixed    int64 // fixed-differential cycles
	Cached   int64 // two-level hierarchy cycles
	MissRate float64
}

// CacheResult is the cache-hierarchy study (A7): replacing the paper's
// fixed differential with a Pentium-Pro-flavoured two-level hierarchy
// whose full miss costs MD.
type CacheResult struct {
	Rows []CacheRow
}

// CacheStudy runs the figure workloads against the default hierarchy,
// each workload's points as one Runner.RunAll.
func (c *Context) CacheStudy() (*CacheResult, error) {
	res := &CacheResult{}
	kinds := []machine.Kind{machine.DM, machine.SWSM}
	fixed := machine.Params{Window: ablationWindow, MD: ablationMD}
	cached := fixed
	cached.Mem = memsys.DefaultCacheSpec()
	for _, name := range workloads.FigureNames() {
		var pts []sweep.Point
		for _, kind := range kinds {
			pts = append(pts, sweep.Point{Kind: kind, P: fixed}, sweep.Point{Kind: kind, P: cached})
		}
		rs, err := c.runAll(name, pts)
		if err != nil {
			return nil, err
		}
		for i, kind := range kinds {
			f, h := rs[2*i], rs[2*i+1]
			res.Rows = append(res.Rows, CacheRow{
				Name: name, Kind: kind,
				Fixed: f.Cycles, Cached: h.Cycles, MissRate: fraction(h.Fills-h.MemHits, h.Fills),
			})
		}
	}
	return res, nil
}

// Render writes the cache study as a table.
func (r *CacheResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "machine", "fixed-MD cycles", "cached cycles", "miss rate"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, row.Kind.String(),
			fmt.Sprintf("%d", row.Fixed), fmt.Sprintf("%d", row.Cached),
			fmt.Sprintf("%.0f%%", 100*row.MissRate),
		})
	}
	tbl := plot.Table{Title: "A7: two-level cache hierarchy vs fixed differential (window 64, MD=60)", Rows: rows}
	return tbl.Render(w)
}

// ComplexityRow combines an equivalent-window measurement with the
// Palacharla window-logic delay model.
type ComplexityRow struct {
	Name     string
	DMWindow int
	EqWindow int
	Ratio    float64
	// ClockPenalty is how much slower the SWSM must clock at its
	// equivalent window, per metrics.DefaultDelayModel.
	ClockPenalty float64
}

// ComplexityResult is the window-logic complexity study (P2): the paper's
// closing argument quantified — the SWSM needs a 2-4x window to match DM
// throughput, and that window costs clock rate quadratically.
type ComplexityResult struct {
	MD   int
	Rows []ComplexityRow
}

// ComplexityStudy evaluates clock-adjusted equivalent windows at MD=60.
// The workloads fan out across the pool; each runs its three searches
// in order, so its probe waves (and remote requests) do not depend on
// timing.
func (c *Context) ComplexityStudy() (*ComplexityResult, error) {
	model := metrics.DefaultDelayModel
	names := workloads.FigureNames()
	rows := make([][]ComplexityRow, len(names))
	if err := sweep.ForEach(c.Parallelism, len(names), func(i int) error {
		r, err := c.Runner(names[i])
		if err != nil {
			return err
		}
		for _, w := range []int{32, 64, 100} {
			dm, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: ablationMD}})
			if err != nil {
				return err
			}
			eq, ok, err := metrics.EquivalentWindow(r, machine.Params{Window: w, MD: ablationMD, MemQueue: machine.QueueFactor * w}, dm.Cycles)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			rows[i] = append(rows[i], ComplexityRow{
				Name: names[i], DMWindow: w, EqWindow: eq,
				Ratio:        float64(eq) / float64(w),
				ClockPenalty: model.RelativeClock(eq, isa.DefaultSWSMWidth, w, isa.DefaultDUWidth),
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	res := &ComplexityResult{MD: ablationMD}
	for _, rs := range rows {
		res.Rows = append(res.Rows, rs...)
	}
	return res, nil
}

// Render writes the complexity study as a table.
func (r *ComplexityResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "DM window", "equiv SWSM window", "ratio", "SWSM clock penalty"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, fmt.Sprintf("%d", row.DMWindow), fmt.Sprintf("%d", row.EqWindow),
			fmt.Sprintf("%.2fx", row.Ratio), fmt.Sprintf("%.2fx", row.ClockPenalty),
		})
	}
	tbl := plot.Table{Title: fmt.Sprintf("P2: window-logic complexity (Palacharla model), MD=%d", r.MD), Rows: rows}
	return tbl.Render(w)
}
