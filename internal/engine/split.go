package engine

import "sync"

// The decoupled split (DESIGN.md §3, "Decoupled runs: one pass per
// unit"). In a decoupled program no unit-0 (AU) op reads a unit-1 (DU)
// value and no DU op sends, so nothing the DU does can reach the AU: the
// AU's trajectory is the same with or without the DU, and the memory
// model only ever sees the AU's requests. Run then simulates the AU
// alone, recording when each of its values is ready, and the DU alone
// against those times. Each pass is a single core whose state can
// repeat, so the steady-state skip fires on both; simulated jointly, the
// AU's growing lead keeps the two-core state from ever repeating.

// passKind selects the cores a pass of the cycle loop simulates.
type passKind uint8

const (
	passJoint passKind = iota // every core at once
	passAU                    // a split run's unit 0 alone
	passDU                    // a split run's unit 1 alone
)

// units returns the cores [u0, u1) a pass of kind k simulates.
//
//daelint:hotpath
func (k passKind) units(numUnits int) (int, int) {
	switch k {
	case passAU:
		return 0, 1
	case passDU:
		return 1, 2
	}
	return 0, numUnits
}

// slot is the index of a pass's skip counters: 0 for a joint run or the
// AU pass, 1 for the DU pass.
//
//daelint:hotpath
func (k passKind) slot() int {
	if k == passDU {
		return 1
	}
	return 0
}

// splitInfo is a program's decoupling, found on the first run that asks.
type splitInfo struct {
	once sync.Once
	ok   bool
}

// splittable reports whether the program is decoupled: two units, no
// unit-0 op with a source or memory source on unit 1, and no unit-1
// send.
//
//daelint:hotpath
func (p *Program) splittable() bool {
	p.split.once.Do(p.scanSplit)
	return p.split.ok
}

// scanSplit computes splittable's answer.
func (p *Program) scanSplit() {
	if p.NumUnits != 2 {
		return
	}
	for _, i := range p.Stream(0) {
		for _, s := range p.srcs(i) {
			if p.units[s] != 0 {
				return
			}
		}
		if m := p.memSrcs[i]; m != NoDep && p.units[m] != 0 {
			return
		}
	}
	for _, i := range p.Stream(1) {
		if p.flags[i]&opFlagSend != 0 {
			return
		}
	}
	p.split.ok = true
}

// runSplit runs a decoupled program as the AU pass, which records its
// ops' completion and fill times (and its one jump, as an auJump), then
// the DU pass, which takes those times as external ready times. It sets
// res.Cycles to the later pass's end: each pass ends at its last
// completion, and the joint run ends at the last completion of either
// core.
//
//daelint:hotpath
func (s *Sim) runSplit(p *Program, cfg *Config, res *Result) error {
	n := len(p.kinds)
	if cap(s.tDone) < n {
		s.tDone = make([]int64, n) //daelint:hotpath-ok scratch grows once per Sim, before the cycle loop
		s.tFill = make([]int64, n) //daelint:hotpath-ok scratch grows once per Sim, before the cycle loop
	} else {
		s.tDone, s.tFill = s.tDone[:n], s.tFill[:n]
	}
	s.orb.stats.split = true
	s.jump = auJump{}
	endAU, err := s.pass(p, cfg, res, passAU)
	if err != nil {
		return err
	}
	// The AU pass's wakes and jump touched DU ops' words, which the DU
	// pass sets up afresh as it dispatches each op (extTime). The
	// calendar starts empty.
	s.cq.reset(s.horizon) //daelint:hotpath-ok setup between the passes, outside either cycle loop
	endDU, err := s.pass(p, cfg, res, passDU)
	if err != nil {
		return err
	}
	res.Cycles = max(endAU, endDU)
	return nil
}

// auJump is the AU pass's jump, which it takes at most once. Every AU
// op in [lo, hi) issued during the jumped orbits, so it replays the op
// d below, dc cycles later; auTime resolves its times from the orbit
// below lo. Times are written for every AU op outside [lo, hi), from
// the cycle loop or, for ops the jump's landing state has already
// issued, from the jump itself. An empty range (hi <= lo) resolves
// nothing.
type auJump struct {
	lo, hi, d int32
	dc        int64
}

// auTime returns AU op x's entry of t (tDone or tFill): written, or,
// inside the jumped stretch, the entry of the op k orbits below, the
// first one under it, plus k orbits' cycles.
//
//daelint:hotpath
func (s *Sim) auTime(t []int64, x int32) int64 {
	g := &s.jump
	if x < g.lo || x >= g.hi {
		return t[x]
	}
	k := (x-g.lo)/g.d + 1
	return t[x-k*g.d] + int64(k)*g.dc
}

// extTime returns DU op x's external ready time, the latest time at
// which one of its AU producers completes or, for a consume, its fill
// arrives, and how many of its DU producers have not completed yet.
//
// The DU pass calls it as it dispatches x, which sets up x's words: the
// AU pass's wakes and jump touched them, and a DU producer's wake before
// x dispatches only decrements a count this replaces. Such a producer
// precedes x in the DU stream, so it has dispatched and its state is
// live. For an op not yet dispatched only the time counts.
//
//daelint:hotpath
func (s *Sim) extTime(p *Program, x int32) (t int64, pend int32) {
	for _, src := range p.srcs(x) {
		if p.units[src] == 0 {
			t = max(t, s.auTime(s.tDone, src))
		} else if s.state[src] != stDone {
			pend++
		}
	}
	if m := p.memSrcs[x]; m != NoDep {
		t = max(t, s.auTime(s.tFill, m))
	}
	return t, pend
}

// extRepeats returns the largest j' <= j for which the first j' replays
// of the DU pass's orbit see their external inputs as the orbit did.
// The orbit took dc cycles and dispatched the ops w; replay k
// dispatches each op k·d ops on, k·dc cycles later. An op whose input
// was ready when it dispatched at cycle r needs its replay's input
// ready by r + k·dc; one whose input was delivered later, at t, needs
// its replay's delivered exactly at t + k·dc. The DU pass recorded
// either ^r or t in tDone as it dispatched the op.
//
// A replay's input is the one before it plus the AU's cycles over d
// ops when d is a whole number of AU orbits and the AU times both read
// lie in the AU's jumped stretch or the orbit below it (auTime);
// otherwise extTime computes it.
//
//daelint:hotpath
func (s *Sim) extRepeats(p *Program, dc int64, d int32, w []int32, j int32) int32 {
	g := &s.jump
	periodic := g.hi > g.lo && d%g.d == 0
	rate := int64(d/max(g.d, 1)) * g.dc
	for _, x := range w {
		// [lo, hi] spans x's AU inputs.
		lo, hi := int32(len(p.kinds)), int32(-1)
		for _, src := range p.srcs(x) {
			if p.units[src] == 0 {
				lo, hi = min(lo, src), max(hi, src)
			}
		}
		if m := p.memSrcs[x]; m != NoDep {
			lo, hi = min(lo, m), max(hi, m)
		}
		if hi < 0 {
			continue // no AU input: every replay's is ready at 0
		}
		e, _ := s.extTime(p, x)
		t := s.tDone[x]
		for k := int32(1); k <= j; k++ {
			if periodic && lo+(k-1)*d >= g.lo-g.d && hi+k*d < g.hi {
				e += rate
			} else {
				e, _ = s.extTime(p, x+k*d)
			}
			kdc := int64(k) * dc
			if t >= 0 && e != t+kdc || t < 0 && e > ^t+kdc {
				j = k - 1
			}
		}
	}
	return j
}
