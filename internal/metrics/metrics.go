// Package metrics computes the paper's derived measures: speedup over
// the serial reference, latency-hiding effectiveness (LHE), the
// equivalent window (the SWSM window matching a DM configuration) and
// the MD=0 crossover window.
//
// The equivalent-window search works on a curve, whose targets share
// every parameter but the DM window, as one unit. Every probe routes
// through a sweep.Runner, so overlapping figure sweeps share memoized
// results. Each curve is serial; callers fan independent curves out.
package metrics

import (
	"fmt"
	"slices"
	"sort"

	"daesim/internal/machine"
	"daesim/internal/sweep"
)

// Speedup returns serial/actual; zero actual yields zero.
func Speedup(serial, actual int64) float64 {
	if actual == 0 {
		return 0
	}
	return float64(serial) / float64(actual)
}

// LHE returns the latency-hiding effectiveness T_perfect/T_actual, where
// T_perfect is the execution time when every memory access perceives a
// single-cycle latency (Jones & Topham, §5). Perfect hiding gives 1.
func LHE(perfect, actual int64) float64 {
	if actual == 0 {
		return 0
	}
	return float64(perfect) / float64(actual)
}

// MaxEquivalentWindow bounds the equivalent-window search. The paper
// examines SWSM windows up to 1000 slots; the search allows a deeper
// sweep so ratios near the top of Figures 7-9 resolve.
const MaxEquivalentWindow = 8192

// RatioAnswer is one point of a ratio curve: the equivalent SWSM window
// over the DM window, with OK false when the search saturated.
type RatioAnswer struct {
	Ratio float64
	OK    bool
}

// EquivalentWindow returns the smallest SWSM window (running the suite
// under p with p.Window replaced by the candidate) whose time is at most
// target cycles: a curve of one target (see RatioCurve). p.Window, when
// positive, seeds the bracket: the search probes it first and expands or
// refines from there. ok is false if even MaxEquivalentWindow cannot
// reach the target.
//
// Minimality holds under monotonicity of time in window size, which the
// engine satisfies up to small Graham anomalies (DESIGN.md §3). Inside
// an anomaly wobble band the boundary is ambiguous and the returned
// window depends on the probe path — but the probe path is a pure
// function of the curve and the probe results, never of execution
// placement, so the answer is reproducible everywhere and always
// satisfies t(w) <= target < t(w-1).
func EquivalentWindow(r *sweep.Runner, p machine.Params, target int64) (window int, ok bool, err error) {
	windows, oks, err := (&curve{r: r, p: p}).searchAll([]int{p.Window}, []int64{target})
	if err != nil {
		return 0, false, err
	}
	return windows[0], oks[0], nil
}

// EquivalentWindowRatio runs the DM at p and returns the ratio of the
// equivalent SWSM window to the DM (per-unit) window: a ratio curve of
// one point.
func EquivalentWindowRatio(r *sweep.Runner, p machine.Params) (ratio float64, ok bool, err error) {
	answers, err := RatioCurve(r, p, []int{p.Window})
	if err != nil {
		return 0, false, err
	}
	return answers[0].Ratio, answers[0].OK, nil
}

// RatioCurve measures one curve of Figures 7-9: for each DM window of
// windows, the ratio of the equivalent SWSM window to it, with every
// other parameter fixed by p. Each machine's memory buffer scales with
// its own window (the default QueueFactor×Window): the prefetch buffer
// is part of the window resource the search is scaling, so a probe at
// window w gets a w-proportional buffer just as the DM it must match got
// one. An explicit p.MemQueue or p.Mem is used as given.
//
// The DM anchors run as one Runner.RunAll; then every target searches
// the same SWSM time t(w), starting from the probes the curve has
// already read (curve.search). An answer is a pure function of its
// curve's set of DM windows, not of their order.
func RatioCurve(r *sweep.Runner, p machine.Params, windows []int) ([]RatioAnswer, error) {
	pts := make([]sweep.Point, len(windows))
	for i, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("metrics: equivalent window ratio needs a finite DM window")
		}
		q := p
		q.Window = w
		pts[i] = sweep.Point{Kind: machine.DM, P: q}
	}
	dms, err := r.RunAll(pts)
	if err != nil {
		return nil, err
	}
	targets := make([]int64, len(dms))
	for i, dm := range dms {
		targets[i] = dm.Cycles
	}
	eq, oks, err := (&curve{r: r, p: p}).searchAll(windows, targets)
	if err != nil {
		return nil, err
	}
	answers := make([]RatioAnswer, len(windows))
	for i, w := range windows {
		answers[i] = RatioAnswer{Ratio: float64(eq[i]) / float64(w), OK: oks[i]}
	}
	return answers, nil
}

// kSectionWidth is the interior-probe count of each refinement wave.
// It is a fixed constant — not the machine's parallelism — because the
// wave contents define the search's answer path, and that path must be
// identical everywhere for local, remote, and differently-sized hosts
// to agree bit-for-bit on figure values. 4 shrinks a bracket 5x per
// wave. A search stops each wave at its first target-meeting probe,
// wherever the probes simulate, so the width costs nothing beyond the
// probes it reads.
const kSectionWidth = 4

// ladderWindows is the speculative bracket sequence for a hint: the
// hint and its doublings up to the cap. A pure function of the hint.
func ladderWindows(hint int) []int {
	ladder := []int{hint}
	for w := 2 * hint; w < MaxEquivalentWindow; w *= 2 {
		ladder = append(ladder, w)
	}
	if ladder[len(ladder)-1] != MaxEquivalentWindow {
		ladder = append(ladder, MaxEquivalentWindow)
	}
	return ladder
}

// ladderStage is how many ladder rungs one wave speculates on. Only a
// target no probe of its curve meets yet climbs the ladder: in a ratio
// curve, the largest DM window, whose ratio lands within a few
// doublings of its hint. A 4-rung stage (hint..8×hint) resolves it in
// one wave without paying for the cap-sized probes a full-ladder wave
// would waste.
const ladderStage = 4

// curve is one curve's search: the SWSM under p with only the window
// varied, and the probes the curve has read so far.
type curve struct {
	r     *sweep.Runner
	p     machine.Params
	known []probe // ascending window; no window is read twice
}

// probe is one SWSM time a curve has read: exact, or, with bound set,
// a certified lower bound that proved a miss without simulating
// (sweep.Runner.Probe). A bound decides every target below it; a later
// target at or above it simulates the probe (curve.settle).
type probe struct {
	window int
	cycles int64
	bound  bool
}

// searchAll answers every target of the curve: the smallest window
// meeting targets[i], with hints[i] seeding the ladder if no probe of the
// curve meets it yet. Targets are searched in descending hint order, ties
// by ascending target, so the order callers list them in changes nothing.
func (c *curve) searchAll(hints []int, targets []int64) (windows []int, oks []bool, err error) {
	order := make([]int, len(targets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return hints[i] > hints[j] || hints[i] == hints[j] && targets[i] < targets[j]
	})
	windows, oks = make([]int, len(targets)), make([]bool, len(targets))
	for _, i := range order {
		if windows[i], oks[i], err = c.search(hints[i], targets[i]); err != nil {
			return nil, nil, err
		}
	}
	return windows, oks, nil
}

// search answers one target: the smallest window w with
// t(w) <= target < t(w-1), or (MaxEquivalentWindow, false) when no
// window up to the cap meets it. Its bracket (lo, hi] starts from the
// curve's probes: hi is the smallest known window meeting the target, lo
// the known window just below it (0 if none). When no known window
// meets the target, the ladder climbs from above every known window,
// and the bracket is the rung before its first hit (lo, at the first
// rung) and that hit. k-section waves then close the bracket.
func (c *curve) search(hint int, target int64) (window int, ok bool, err error) {
	lo, hi := 0, 0
	for i := range c.known {
		k := &c.known[i]
		if k.bound && k.cycles <= target {
			if err := c.settle(k, target); err != nil {
				return 0, false, err
			}
		}
		if k.cycles <= target {
			hi = k.window
			break
		}
		lo = k.window
	}
	if hi == 0 {
		if lo >= MaxEquivalentWindow {
			return MaxEquivalentWindow, false, nil
		}
		ladder := ladderWindows(min(max(hint, lo+1), MaxEquivalentWindow))
		for i := 0; hi == 0; i += ladderStage {
			if i >= len(ladder) {
				return MaxEquivalentWindow, false, nil
			}
			stage := ladder[i:min(i+ladderStage, len(ladder))]
			first, err := c.wave(stage, target)
			if err != nil {
				return 0, false, err
			}
			if first >= 0 {
				hi = stage[first]
				if i+first > 0 {
					lo = ladder[i+first-1]
				}
			}
		}
	}
	// next is the smallest window not known to miss the target.
	for next := lo + 1; next < hi; {
		span := hi - next
		m := min(kSectionWidth, span)
		xs := make([]int, 0, m)
		for j := 1; j <= m; j++ {
			if x := next + j*span/(m+1); len(xs) == 0 || x > xs[len(xs)-1] {
				xs = append(xs, x)
			}
		}
		first, err := c.wave(xs, target)
		if err != nil {
			return 0, false, err
		}
		switch {
		case first < 0:
			next = xs[len(xs)-1] + 1
		case first == 0:
			hi = xs[0]
		default:
			next, hi = xs[first-1]+1, xs[first]
		}
	}
	return hi, true, nil
}

// point returns the SWSM point at window w.
func (c *curve) point(w int) sweep.Point {
	q := c.p
	q.Window = w
	return sweep.Point{Kind: machine.SWSM, P: q}
}

// settle replaces a known bound that cannot decide target with the
// probe's exact time: the bound is at or below target, so the Runner
// simulates it.
func (c *curve) settle(k *probe, target int64) error {
	res, _, err := c.r.Probe(c.point(k.window), target)
	if err != nil {
		return err
	}
	*k = probe{window: k.window, cycles: res.Cycles}
	return nil
}

// wave evaluates the SWSM at the windows of one wave, in order, one
// point at a time through Runner.Probe, and returns the index of the
// first meeting the target, or -1 when none does. The wave stops at
// that first hit, and every probe it read joins the curve's known
// probes; a probe whose certified lower bound exceeds the target is a
// miss that is not simulated, and joins them carrying its bound. A
// RemoteBatch hook moves only where the simulations run, so a curve's
// known probes, and with them every later bracket, are the same on a
// laptop, a CI runner and a sweepd fleet.
func (c *curve) wave(ws []int, target int64) (first int, err error) {
	for i, w := range ws {
		k := probe{window: w}
		res, lb, err := c.r.Probe(c.point(w), target)
		if err != nil {
			return 0, err
		}
		if res == nil {
			k.cycles, k.bound = lb, true
		} else {
			k.cycles = res.Cycles
		}
		at, _ := slices.BinarySearchFunc(c.known, w, func(k probe, w int) int { return k.window - w })
		c.known = slices.Insert(c.known, at, k)
		if !k.bound && k.cycles <= target {
			return i, nil
		}
	}
	return -1, nil
}

// Crossover returns the smallest window in windows (ascending) at which
// the SWSM is at least as fast as the DM with the same per-unit window,
// and ok=false if no such window exists in the sweep. This locates the
// paper's MD=0 cutoff points. Both machines run through the Runner, so
// a crossover scan over windows another sweep already visited costs
// nothing; the SWSM is a Runner.Probe against the DM's time, so a
// window its certified lower bound rules out is not simulated.
func Crossover(r *sweep.Runner, p machine.Params, windows []int) (window int, ok bool, err error) {
	for _, w := range windows {
		q := p
		q.Window = w
		dm, err := r.Run(sweep.Point{Kind: machine.DM, P: q})
		if err != nil {
			return 0, false, err
		}
		sw, _, err := r.Probe(sweep.Point{Kind: machine.SWSM, P: q}, dm.Cycles)
		if err != nil {
			return 0, false, err
		}
		if sw != nil && sw.Cycles <= dm.Cycles {
			return w, true, nil
		}
	}
	return 0, false, nil
}
