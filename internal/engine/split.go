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

// runSplit runs a decoupled program as the AU pass, which records every
// AU op's completion and fill times, then the DU pass, which takes those
// times as external ready times. It sets res.Cycles to the later pass's
// end: each pass ends at its last completion, and the joint run ends at
// the last completion of either core.
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
	endAU, err := s.pass(p, cfg, res, passAU)
	if err != nil {
		return err
	}
	s.prepareDU(p)
	endDU, err := s.pass(p, cfg, res, passDU)
	if err != nil {
		return err
	}
	res.Cycles = max(endAU, endDU)
	return nil
}

// prepareDU turns the AU pass's times into the DU pass's inputs. Every
// DU op gets its external ready time, the latest time at which one of
// its AU producers completes (or, for a consume, its fill arrives), in
// tDone's DU slots, which the AU pass never reads; its pending count
// then covers its DU producers only. The calendar starts empty.
//
//daelint:hotpath
func (s *Sim) prepareDU(p *Program) {
	for _, x := range p.Stream(1) {
		var t int64
		var own int32
		for _, src := range p.srcs(x) {
			if p.units[src] == 0 {
				t = max(t, s.tDone[src])
			} else {
				own++
			}
		}
		if m := p.memSrcs[x]; m != NoDep {
			t = max(t, s.tFill[m])
		}
		// The AU pass's wakes and skips touched DU ops' words; they
		// start over.
		s.state[x] = stWaiting
		s.pending[x] = own
		s.tDone[x] = t
	}
	s.cq.reset(s.horizon) //daelint:hotpath-ok setup between the passes, outside either cycle loop
}

// extRepeats returns the largest j' <= j for which the first j' replays
// of the DU pass's orbit see their external inputs as the orbit did.
// The orbit ran from cycle c1 to c1+dc and dispatched the DU stream's
// positions [next-sh, next); replay k dispatches each of those ops' k·sh
// positions on, k·dc cycles later. An op whose input was ready by c1
// needs its replay's input ready by c1 + k·dc, ahead of the replay's
// dispatch; any other needs its replay's input exactly k·dc later.
//
//daelint:hotpath
func (s *Sim) extRepeats(c1, dc int64, sh int, j int32) int32 {
	c := &s.cores[1]
	st, ext := c.stream, s.tDone
	for k := int32(1); k <= j; k++ {
		at := int(k) * sh
		kdc := int64(k) * dc
		for pos := c.next - sh; pos < c.next; pos++ {
			t, tk := ext[st[pos]], ext[st[pos+at]]
			if t > c1 && tk != t+kdc || t <= c1 && tk > c1+kdc {
				return k - 1
			}
		}
	}
	return j
}
