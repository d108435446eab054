// Package metrics computes the paper's derived measures: speedup over
// the serial reference, latency-hiding effectiveness (LHE), the
// equivalent window (the SWSM window matching a DM configuration) and
// the MD=0 crossover window.
//
// The equivalent-window searches route every probe through a
// sweep.Runner, so overlapping figure sweeps share memoized results, and
// fan independent probes out across a bounded worker pool of
// per-goroutine engine.Sim scratches (see Search).
package metrics

import (
	"fmt"
	"runtime"
	"sync"

	"daesim/internal/engine"
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

// Search runs equivalent-window and crossover searches against one
// sweep.Runner. It owns a pool of per-goroutine engine.Sim scratch
// contexts that stay warm across calls, so a figure sweep of many search
// points does not cold-start scratch on every point, and its probes are
// memoized by the Runner, so overlapping sweeps (WindowSweep curves, the
// other MD curves of a ratio figure) share results.
//
// The search is wave-structured: the exponential bracket ladder is
// climbed in stages of ladderStage rungs, then each refinement layer
// probes kSectionWidth interior points (k-section). The wave contents
// are a pure function of the hint and the probe results — never of
// Parallelism, GOMAXPROCS, or where the probes execute — and every wave
// is read for one thing only: its first probe meeting the target. So a
// search returns the same window on a laptop, a CI runner, and a sweepd
// fleet (TestSearchDeterministicAcrossParallelism), and byte-identity
// between local and remote reproductions is structural rather than
// lucky. Parallelism chooses how a wave is executed and how much of it
// runs. Locally a wave is evaluated in order, in chunks of Parallelism
// points fanned across per-goroutine scratches, and stops after the
// first chunk holding a probe that meets the target: the probes after
// it could not change the answer. With a RemoteBatch hook on the Runner
// a whole wave travels as one batched round trip, which is what
// collapses a remote search's request count (DESIGN.md §11).
// Points carrying a custom Params.Mem run the same waves, evaluated
// locally one probe at a time: a stateful memory model is not safe to
// probe concurrently (or remotely).
//
// A Search is not safe for concurrent use by multiple goroutines; it
// parallelizes internally.
type Search struct {
	// Runner executes and memoizes the probes.
	Runner *sweep.Runner
	// Parallelism bounds the probe fan-out (0: the Runner's Parallelism,
	// else GOMAXPROCS).
	Parallelism int

	sims []*engine.Sim
}

// NewSearch returns a Search against the runner.
func NewSearch(r *sweep.Runner) *Search { return &Search{Runner: r} }

func (s *Search) par() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	if s.Runner != nil && s.Runner.Parallelism > 0 {
		return s.Runner.Parallelism
	}
	return runtime.GOMAXPROCS(0) //daelint:nondeterministic-ok worker-pool width only; wave contents and the first target-meeting probe fix every answer
}

// sim returns the i'th warm scratch context, growing the pool on demand.
func (s *Search) sim(i int) *engine.Sim {
	for len(s.sims) <= i {
		s.sims = append(s.sims, engine.NewSim())
	}
	return s.sims[i]
}

// evalWave evaluates the SWSM at the windows of one wave and returns
// the times of an evaluated prefix of it: the prefix ends within
// Parallelism points after the first probe meeting the target, or is
// the whole wave when none does. Every caller reads only that first
// meeting probe, so the prefix carries the wave's whole answer, and the
// answer does not depend on the execution strategy. A Runner with a
// RemoteBatch hook evaluates the whole wave in one batched round trip;
// a custom Params.Mem point is evaluated locally, one probe at a time.
func (s *Search) evalWave(p machine.Params, ws []int, target int64) ([]int64, error) {
	pts := make([]sweep.Point, len(ws))
	for i, w := range ws {
		q := p
		q.Window = w
		pts[i] = sweep.Point{Kind: machine.SWSM, P: q}
	}
	par := 1
	if p.Mem == nil {
		if s.Runner.RemoteBatch != nil {
			return s.runBatch(pts)
		}
		par = s.par()
	}
	times := make([]int64, len(pts))
	for lo := 0; lo < len(pts); lo += par {
		hi := lo + par
		if hi > len(pts) {
			hi = len(pts)
		}
		if err := s.evalChunk(pts[lo:hi], times[lo:hi]); err != nil {
			return nil, err
		}
		for _, t := range times[lo:hi] {
			if t <= target {
				return times[:hi], nil
			}
		}
	}
	return times, nil
}

// evalChunk simulates pts into times, one scratch context per point,
// fanned across goroutines when there is more than one point.
func (s *Search) evalChunk(pts []sweep.Point, times []int64) error {
	if len(pts) == 1 {
		r, err := s.Runner.RunWith(s.sim(0), pts[0])
		if err != nil {
			return err
		}
		times[0] = r.Cycles
		return nil
	}
	errs := make([]error, len(pts))
	var wg sync.WaitGroup
	for i := range pts {
		sim := s.sim(i)
		wg.Add(1)
		go func(i int, sim *engine.Sim) {
			defer wg.Done()
			r, err := s.Runner.RunWith(sim, pts[i])
			if err != nil {
				errs[i] = err
				return
			}
			times[i] = r.Cycles
		}(i, sim)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runBatch evaluates every point in one Runner.RunAll call.
func (s *Search) runBatch(pts []sweep.Point) ([]int64, error) {
	results, err := s.Runner.RunAll(pts)
	if err != nil {
		return nil, err
	}
	times := make([]int64, len(results))
	for i, r := range results {
		times[i] = r.Cycles
	}
	return times, nil
}

// EquivalentWindow returns the smallest SWSM window (running the suite
// under p with p.Window replaced by the candidate) whose time is at most
// target cycles. p.Window, when positive, seeds the bracket: the search
// probes it first and expands or refines from there. ok is false if even
// MaxEquivalentWindow cannot reach the target.
//
// Minimality holds under monotonicity of time in window size, which the
// engine satisfies up to small Graham anomalies (DESIGN.md §3). Inside
// an anomaly wobble band the boundary is ambiguous and the returned
// window depends on the probe path — but the probe path is a pure
// function of the hint and the probe results, never of Parallelism or
// execution placement (the Search doc has the contract), so the answer
// is reproducible everywhere and always satisfies
// t(w) <= target < t(w-1). Only the hint can steer which boundary of a
// wobble band is reported.
func (s *Search) EquivalentWindow(p machine.Params, target int64) (window int, ok bool, err error) {
	return s.ladderSearch(p, target, ladderWindows(clampHint(p.Window)), nil)
}

// kSectionWidth is the interior-probe count of each refinement wave.
// It is a fixed constant — not the machine's parallelism — because the
// wave contents define the search's answer path, and that path must be
// identical everywhere for local, remote, and differently-sized hosts
// to agree bit-for-bit on figure values. 4 shrinks a bracket 5x per
// wave, 2-3 waves for figure-scale brackets. A local serial search
// stops each wave at its first target-meeting probe, so the width costs
// it nothing beyond the probes it reads; only a batched remote wave
// simulates all 4.
const kSectionWidth = 4

// clampHint bounds a bracket hint to [1, MaxEquivalentWindow].
func clampHint(hint int) int {
	if hint < 1 {
		return 1
	}
	if hint > MaxEquivalentWindow {
		return MaxEquivalentWindow
	}
	return hint
}

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

// ladderStage is how many ladder rungs one wave speculates on. Figure
// ratios land within a few doublings of the hint, so a 4-rung stage
// (hint..8×hint) resolves most searches in one wave without paying for
// the cap-sized probes a full-ladder wave would waste; only searches
// that overshoot the stage climb to the next one.
const ladderStage = 4

// ladderSearch continues a partially evaluated ladder (times covers
// ladder[:len(times)]) stage by stage until a rung meets the target or
// the ladder is exhausted, then refines the bracket. The probe path is
// a pure function of (ladder, target, probe results).
func (s *Search) ladderSearch(p machine.Params, target int64, ladder []int, times []int64) (window int, ok bool, err error) {
	found := func() bool {
		for _, t := range times {
			if t <= target {
				return true
			}
		}
		return false
	}
	for !found() && len(times) < len(ladder) {
		end := len(times) + ladderStage
		if end > len(ladder) {
			end = len(ladder)
		}
		chunk, err := s.evalWave(p, ladder[len(times):end], target)
		if err != nil {
			return 0, false, err
		}
		times = append(times, chunk...)
	}
	return s.refine(p, target, ladder[:len(times)], times)
}

// refine turns evaluated ladder times into the smallest target-meeting
// window: bracket from the first ladder rung meeting the target, then
// k-section waves of kSectionWidth interior points until the bracket
// closes.
func (s *Search) refine(p machine.Params, target int64, ladder []int, times []int64) (window int, ok bool, err error) {
	first := -1
	for i, t := range times {
		if t <= target {
			first = i
			break
		}
	}
	if first < 0 {
		return MaxEquivalentWindow, false, nil
	}
	lo, hi := 1, ladder[first]
	if first > 0 {
		lo = ladder[first-1] + 1
	}
	for lo < hi {
		span := hi - lo
		m := kSectionWidth
		if m > span {
			m = span
		}
		xs := make([]int, 0, m)
		for j := 1; j <= m; j++ {
			x := lo + j*span/(m+1)
			if len(xs) == 0 || x > xs[len(xs)-1] {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			xs = append(xs, lo+span/2)
		}
		times, err := s.evalWave(p, xs, target)
		if err != nil {
			return 0, false, err
		}
		firstGood := -1
		for i, t := range times {
			if t <= target {
				firstGood = i
				break
			}
		}
		switch {
		case firstGood < 0:
			lo = xs[len(xs)-1] + 1
		case firstGood == 0:
			hi = xs[0]
		default:
			lo, hi = xs[firstGood-1]+1, xs[firstGood]
		}
	}
	return hi, true, nil
}

// EquivalentWindowRatio runs the DM at p and returns the ratio of the
// equivalent SWSM window to the DM (per-unit) window — the quantity of
// Figures 7-9. Each machine's memory buffer scales with its own window
// (the default QueueFactor×Window): the prefetch buffer is part of the
// window resource the search is scaling, so a probe at window w gets a
// w-proportional buffer just as the DM it must match got one — pinning
// the probes to the DM's capacity would charge the SWSM twice for the
// same slots. An explicit p.MemQueue or p.Mem is used as given. ok is
// false when the SWSM cannot match the DM within MaxEquivalentWindow.
func (s *Search) EquivalentWindowRatio(p machine.Params) (ratio float64, ok bool, err error) {
	if p.Window <= 0 {
		return 0, false, fmt.Errorf("metrics: equivalent window ratio needs a finite DM window")
	}
	var w int
	if p.Mem != nil || s.Runner.RemoteBatch == nil {
		// Locally the DM anchor resolves first: its time is the target
		// every ladder wave stops on.
		dm, err := s.Runner.RunWith(s.sim(0), sweep.Point{Kind: machine.DM, P: p})
		if err != nil {
			return 0, false, err
		}
		w, ok, err = s.EquivalentWindow(p, dm.Cycles)
	} else {
		w, ok, err = s.remoteRatio(p)
	}
	if err != nil {
		return 0, false, err
	}
	return float64(w) / float64(p.Window), ok, nil
}

// remoteRatio is the batched ratio search. The DM anchor rides in the
// first wave with the first ladder stage: the ladder's contents depend
// only on the hint, not on the target, so nothing forces the anchor to
// resolve first — and folding it in saves a remote search one full
// round trip per ratio point.
func (s *Search) remoteRatio(p machine.Params) (window int, ok bool, err error) {
	ladder := ladderWindows(clampHint(p.Window))
	end := ladderStage
	if end > len(ladder) {
		end = len(ladder)
	}
	pts := make([]sweep.Point, 0, end+1)
	pts = append(pts, sweep.Point{Kind: machine.DM, P: p})
	for _, w := range ladder[:end] {
		q := p
		q.Window = w
		pts = append(pts, sweep.Point{Kind: machine.SWSM, P: q})
	}
	times, err := s.runBatch(pts)
	if err != nil {
		return 0, false, err
	}
	return s.ladderSearch(p, times[0], ladder, times[1:])
}

// Crossover returns the smallest window in windows (ascending) at which
// the SWSM is at least as fast as the DM with the same per-unit window,
// and ok=false if no such window exists in the sweep. This locates the
// paper's MD=0 cutoff points. Both machines run through the Runner on
// one warm scratch, so a crossover scan over windows another sweep
// already visited costs nothing.
func (s *Search) Crossover(p machine.Params, windows []int) (window int, ok bool, err error) {
	sim := s.sim(0)
	for _, w := range windows {
		q := p
		q.Window = w
		dm, err := s.Runner.RunWith(sim, sweep.Point{Kind: machine.DM, P: q})
		if err != nil {
			return 0, false, err
		}
		sw, err := s.Runner.RunWith(sim, sweep.Point{Kind: machine.SWSM, P: q})
		if err != nil {
			return 0, false, err
		}
		if sw.Cycles <= dm.Cycles {
			return w, true, nil
		}
	}
	return 0, false, nil
}

// EquivalentWindow is Search.EquivalentWindow on a one-shot Search
// against r. Callers evaluating many points should hold a Search so the
// scratch pool stays warm.
func EquivalentWindow(r *sweep.Runner, p machine.Params, target int64) (window int, ok bool, err error) {
	return NewSearch(r).EquivalentWindow(p, target)
}

// EquivalentWindowRatio is Search.EquivalentWindowRatio on a one-shot
// Search against r.
func EquivalentWindowRatio(r *sweep.Runner, p machine.Params) (ratio float64, ok bool, err error) {
	return NewSearch(r).EquivalentWindowRatio(p)
}

// Crossover is Search.Crossover on a one-shot Search against r.
func Crossover(r *sweep.Runner, p machine.Params, windows []int) (window int, ok bool, err error) {
	return NewSearch(r).Crossover(p, windows)
}
