package engine

import (
	"math/bits"
	"slices"
)

// The steady-state skip (DESIGN.md §3). The programs the engine runs are
// loop nests: over most of a program, op i and op i+P agree on kind,
// unit and every edge taken relative to the op. Run then tends to fall
// into an orbit: the machine state at one period boundary, written
// relative to that boundary and to the current cycle, repeats exactly
// some whole periods later. A deterministic machine that reaches the same
// state on the same future input repeats the same trajectory, so Run
// simulates the orbit once, checks the repeat byte for byte, and jumps
// whole repeats at once: it shifts the op-indexed state, stream
// positions, calendar and memory model, and adds the per-orbit deltas to
// every additive Result counter. Maxima stay as they are, because the
// skipped orbits repeat one already simulated. Results are bit-identical
// to simulating every cycle; ReferenceRun, which never skips, is the
// oracle the tests hold it to.

// maxOrbitUnits bounds the cores of a program the skip applies to (the
// lowerings emit one or two).
const maxOrbitUnits = 2

// periodScanBudget bounds scanPeriod's op comparisons, per program op.
const periodScanBudget = 64

// ShiftableMem is a memory model whose answers the steady-state skip can
// jump over: RequestFill ignores the address, the model counts no hits
// (it is not a MemHitCounter), and its whole state is a list of cycle
// times, so moving every stored time dt later moves every later answer
// dt later. Run skips repeated orbits only with no model or such a
// model; with any other model it simulates every cycle.
type ShiftableMem interface {
	MemModel
	// AppendState appends the model's state relative to now to dst, in a
	// canonical form: two states append the same values exactly when
	// every later request sent after now gets the same answer from both,
	// relative to now.
	AppendState(dst []int64, now int64) []int64
	// Shift moves every stored time dt cycles later.
	Shift(dt int64)
}

// period is a program's structural period: ops i and i+p agree (sameOp)
// for every i in [lo, hi-p). p is 0 when the program has none.
type period struct {
	p, lo, hi int32
	// reach is the longest edge with an endpoint in [lo, hi): no op of
	// the run has a producer or consumer further away than this.
	reach int32
	// spos is each unit's stream position of op lo, cnt its ops per
	// period.
	spos, cnt [maxOrbitUnits]int32
}

// orbitPeriod returns the program's structural period, scanning for it
// on first use.
//
//daelint:hotpath
func (p *Program) orbitPeriod() *period {
	p.perOnce.Do(func() { p.per = p.scanPeriod() }) //daelint:hotpath-ok once per program; the closure does not escape
	return &p.per
}

// sameOp reports whether ops i and j agree on kind, unit, flags and
// every edge taken relative to the op itself: sources, memory source,
// and completion and fill consumers. Addresses and Orig are not
// compared: the skip runs only where neither matters.
func (p *Program) sameOp(i, j int32) bool {
	if p.kinds[i] != p.kinds[j] || p.units[i] != p.units[j] || p.flags[i] != p.flags[j] {
		return false
	}
	mi, mj := p.memSrcs[i], p.memSrcs[j]
	if (mi == NoDep) != (mj == NoDep) || (mi != NoDep && i-mi != j-mj) {
		return false
	}
	return sameRel(p.srcOff, p.srcDat, i, j) && sameRel(p.cpOff, p.cpDat, i, j) && sameRel(p.cfOff, p.cfDat, i, j)
}

// sameRel reports whether CSR rows i and j hold the same op offsets
// relative to i and j.
func sameRel(off, dat []int32, i, j int32) bool {
	a, b := dat[off[i]:off[i+1]], dat[off[j]:off[j+1]]
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k]-i != b[k]-j {
			return false
		}
	}
	return true
}

// scanPeriod finds the program's period: the smallest p for which the
// run of ops i with sameOp(i, i+p) around the middle op covers at least
// a quarter of the program and four periods. The scan allocates nothing
// and gives up after periodScanBudget comparisons per op.
func (p *Program) scanPeriod() period {
	n := int32(len(p.kinds))
	if p.NumUnits > maxOrbitUnits || n < 8 {
		return period{}
	}
	budget := int64(periodScanBudget) * int64(n)
	m := n / 2
	for q := int32(1); 4*q <= n && m+q < n && budget > 0; q++ {
		budget--
		if !p.sameOp(m, m+q) {
			continue
		}
		lo, end := m, m+1 // sameOp(i, i+q) for every i in [lo, end)
		for lo > 0 && p.sameOp(lo-1, lo-1+q) {
			lo--
		}
		for end+q < n && p.sameOp(end, end+q) {
			end++
		}
		budget -= int64(end - lo)
		if hi := end + q; hi-lo >= 4*q && hi-lo >= n/4 {
			per := period{p: q, lo: lo, hi: hi, reach: p.reachIn(lo, hi)}
			for i := int32(0); i < lo+q; i++ {
				if i < lo {
					per.spos[p.units[i]]++
				} else {
					per.cnt[p.units[i]]++
				}
			}
			return per
		}
	}
	return period{}
}

// reachIn returns the longest edge with an endpoint in ops [lo, hi).
func (p *Program) reachIn(lo, hi int32) int32 {
	var reach int32
	for i := lo; i < hi; i++ {
		for _, s := range p.srcs(i) {
			reach = max(reach, i-s)
		}
		if m := p.memSrcs[i]; m != NoDep {
			reach = max(reach, i-m)
		}
		for _, c := range p.plainConsumers(i) {
			reach = max(reach, c-i)
		}
		for _, c := range p.fillConsumers(i) {
			reach = max(reach, c-i)
		}
	}
	return reach
}

// orbit is a Sim's steady-state skip state for one pass of a run.
type orbit struct {
	// on is set while the pass samples anchors.
	on bool
	// inOrder records Config.RetireInOrder: retirePtr is state only then.
	inOrder bool
	kind    passKind
	per     *period
	mem     ShiftableMem
	// step is the op distance between sampled anchors, a whole number of
	// periods; anchor is the next one, need the number of the pass's ops
	// below it, and k the number sampled so far.
	step, anchor int32
	need         int
	k            int
	// The saved sample, Brent's tortoise: replaced at k = 1, 2, 4, ...
	// and compared with every later sample.
	have      bool
	savedA    int32 // its anchor
	savedBase int32 // the lowest op its state covers
	saved     []int64
	savedCnt  []int64
	// cur and curCnt are the sample being taken: the canonical state and
	// the additive counters (see counters).
	cur, curCnt []int64
	evs         []farEvent
	stats       skipStats
}

// skipStats records what the skip did in the last run; tests read it.
// The per-pass arrays are indexed by passKind.slot: a joint run or the
// AU pass, then the DU pass.
type skipStats struct {
	// split is set when the run took two passes.
	split bool
	// skipped counts each pass's ops jumped over, and jumps its jumps.
	skipped, jumps [2]int
	// step is each pass's distance between anchors, first the anchor of
	// its first sample (0 for none).
	step, first [2]int32
	// landed is the dispatch frontier just after each pass's last jump,
	// orbit that jump's ops per orbit, and byHi whether the end of the
	// periodic run, not the DU's external inputs, bounded it.
	landed, orbit [2]int32
	byHi          [2]bool
}

// orbitBegin arms the skip for a pass when it can be exact: no ESW
// sampling (it reads trace positions), a memory model that is absent or
// ShiftableMem (the DU pass of a split run never calls it), a structural
// period, and windows small enough to leave room for repeats inside the
// periodic run.
//
//daelint:hotpath
func (s *Sim) orbitBegin(p *Program, cfg *Config, kind passKind) {
	o := &s.orb
	o.on, o.have, o.k, o.mem, o.per = false, false, 0, nil, nil
	o.kind = kind
	o.inOrder = cfg.RetireInOrder
	if cfg.CollectESW {
		return
	}
	if cfg.Mem != nil && kind != passDU {
		sm, ok := cfg.Mem.(ShiftableMem)
		if _, counts := cfg.Mem.(MemHitCounter); !ok || counts {
			return
		}
		o.mem = sm
	}
	per := p.orbitPeriod()
	if per.p == 0 {
		return
	}
	span := int64(per.reach)
	for u := s.u0; u < s.u1; u++ {
		span += int64(s.cores[u].window)
	}
	if span+3*int64(per.p) > int64(per.hi-per.lo) {
		return
	}
	// Sample every so many periods that a snapshot, about three words
	// per op of the window span, costs little next to simulating the
	// ops between two samples.
	o.step = int32(max(1, (span+2*int64(per.p)-1)/(2*int64(per.p)))) * per.p
	o.per = per
	o.stats.step[kind.slot()] = o.step
	// The first sample needs only every op below it to lie past the
	// aperiodic prologue's edges: one reach into the run, unless a step
	// comes sooner.
	s.setAnchor(per.lo + min(o.step, per.reach+1))
	o.on = true
}

// setAnchor makes a the next anchor, and counts the pass's ops below it:
// the pass has not passed a before it has completed that many.
//
//daelint:hotpath
func (s *Sim) setAnchor(a int32) {
	o := &s.orb
	o.anchor = a
	if s.u1-s.u0 == len(s.cores) {
		o.need = int(a)
		return
	}
	o.need = 0
	for u := s.u0; u < s.u1; u++ {
		pos, _ := slices.BinarySearch(s.cores[u].stream, a)
		o.need += pos
	}
}

// anchorDone reports whether every op of the pass below op a has
// completed.
//
//daelint:hotpath
func (s *Sim) anchorDone(a int32) bool {
	for u := s.u0; u < s.u1; u++ {
		c := &s.cores[u]
		for c.donePtr < c.next && s.state[c.stream[c.donePtr]] == stDone {
			c.donePtr++
		}
		if c.donePtr < len(c.stream) && c.stream[c.donePtr] < a {
			return false
		}
	}
	return true
}

// orbitStep samples the anchor that every op below has just passed, at
// the top of cycle `cycle`: it writes the canonical state and, when it
// equals the saved sample, skips as many whole orbits as the periodic
// run leaves room for. It returns the cycle and completed count to go on
// from.
//
//daelint:hotpath
func (s *Sim) orbitStep(p *Program, res *Result, cycle int64, completed, inflight int) (int64, int) {
	o := &s.orb
	per := o.per
	a := o.anchor
	o.k++
	if o.k == 1 && o.stats.first[o.kind.slot()] == 0 {
		o.stats.first[o.kind.slot()] = a
	}
	s.setAnchor(a + o.step)
	front := int32(0)
	for u := s.u0; u < s.u1; u++ {
		c := &s.cores[u]
		if c.next > 0 {
			front = max(front, c.stream[c.next-1]+1)
		}
		c.touch(cycle)
	}
	// A skip of j orbits of d ops needs front + ahead + j·d <= hi (see
	// skip); d is at least one step. ahead covers the reach of every
	// edge and each core's next op, so a core whose stream has run out
	// while the period still holds its ops leaves no room.
	ahead := per.reach
	for u := s.u0; u < s.u1; u++ {
		c := &s.cores[u]
		if c.next < len(c.stream) {
			ahead = max(ahead, c.stream[c.next]-front+1)
		} else if per.cnt[u] > 0 {
			o.on = false
			return cycle, completed
		}
	}
	if int64(front)+int64(ahead)+int64(o.step) > int64(per.hi) {
		o.on = false // no room left for a repeat and a skip
		return cycle, completed
	}
	save := o.k&(o.k-1) == 0
	base, whole := s.snapshot(p, a, front, cycle, inflight, res.Fills, !save)
	if whole && o.have && o.savedBase >= per.lo && slices.Equal(o.cur, o.saved) {
		d := a - o.savedA
		j := (per.hi - front - ahead) / d
		if j < 1 || o.kind != passDU {
			o.on = false
			if j >= 1 {
				return s.skip(p, res, cycle, completed, base, front, d, j, true)
			}
			return cycle, completed
		}
		// The DU pass's input is the AU's times: the replays repeat the
		// orbit only as far as those repeat too.
		c := &s.cores[1]
		w := c.stream[c.next-int(d/per.p*per.cnt[1]) : c.next]
		jx := s.extRepeats(p, cycle-o.savedCnt[len(o.savedCnt)-1], d, w, j)
		if jx < 1 {
			// Compare the next samples with this one: the orbit stays
			// the shortest, and the inputs may repeat from here on.
			o.cur, o.saved = o.saved, o.cur
			o.curCnt, o.savedCnt = o.savedCnt, o.curCnt
			o.savedA, o.savedBase = a, base
			return cycle, completed
		}
		cycle, completed = s.skip(p, res, cycle, completed, base, front, d, jx, jx == j)
		if jx == j {
			o.on = false
		} else {
			// The inputs stopped repeating: look for an orbit again
			// after the jump.
			o.have, o.k = false, 0
			s.setAnchor(o.anchor + jx*d)
		}
		return cycle, completed
	}
	if save && whole {
		o.cur, o.saved = o.saved, o.cur
		o.curCnt, o.savedCnt = o.savedCnt, o.curCnt
		o.have, o.savedA, o.savedBase = true, a, base
	}
	return cycle, completed
}

// snapshot writes the canonical state at the top of cycle now into
// o.cur, relative to anchor a and to now, and the additive counters into
// o.curCnt. The state is: each core's dispatch and retirement positions
// and occupancy; the fills in flight; each op's lifecycle state, pending
// dependence count and pending completion and fill events, from base
// (the lowest op not completed or with an event pending) up to the
// dispatch frontier plus reach; and the memory model's state. Below base
// every op has completed with nothing pending; above the frontier plus
// reach no op has been touched. The ready sets follow from the op
// states (see packEvent for the per-op words). It returns base, and
// whole false for a sample that is not to be used: one with a value too
// wide to pack or, with cut set (a sample that can only be compared,
// not saved), one whose head (positions, base, top and fills in flight)
// already differs from the saved sample's.
//
//daelint:hotpath
func (s *Sim) snapshot(p *Program, a, front int32, now int64, inflight int, fills int64, cut bool) (base int32, whole bool) {
	o := &s.orb
	per := o.per
	n := int32(len(p.kinds))
	periods := (a - per.lo) / per.p
	buf := o.cur[:0]
	base = n
	for u := s.u0; u < s.u1; u++ {
		c := &s.cores[u]
		if c.donePtr < len(c.stream) {
			base = min(base, c.stream[c.donePtr])
		}
		sp := int(per.spos[u] + periods*per.cnt[u])
		buf = append(buf, int64(c.next-sp), int64(c.occ))
		if o.inOrder {
			buf = append(buf, int64(c.retirePtr-sp))
		}
	}
	buf = append(buf, int64(inflight))
	if cut && (!o.have || !slices.Equal(buf, o.saved[:len(buf)])) {
		// Cheap to tell apart before the calendar scan below, which
		// grows with the fills in flight.
		o.cur = buf
		return base, false
	}
	q := &s.cq
	for w, word := range q.bits {
		for word != 0 {
			b := &q.slots[w<<6+bits.TrailingZeros64(word)]
			word &= word - 1
			for _, i := range b.comps {
				base = min(base, i)
			}
			for _, i := range b.fills {
				base = min(base, i)
			}
		}
	}
	for _, ev := range q.far.a {
		base = min(base, ev.op)
	}
	top := max(min(front+per.reach, n), base)
	buf = append(buf, int64(base-a), int64(top-a))
	off := len(buf)
	if cut && (!o.have || !slices.Equal(buf, o.saved[:off])) {
		o.cur = buf
		return base, false
	}
	buf = slices.Grow(buf, int(top-base))[:off+int(top-base)]
	single := s.u1-s.u0 < len(s.cores)
	for i := base; i < top; i++ {
		if single && (int(p.units[i]) < s.u0 || int(p.units[i]) >= s.u1) || o.kind == passDU && i >= front {
			// The other core's ops do not take part in a single-core
			// pass, and the DU pass sets up an op's words only as it
			// dispatches it.
			buf[off+int(i-base)] = 0
			continue
		}
		pd := s.pending[i]
		if pd >= 1<<pendingBits {
			o.cur = buf
			return base, false
		}
		buf[off+int(i-base)] = int64(s.state[i]) | int64(pd)<<2
	}
	fits := true
	for w, word := range q.bits {
		for word != 0 {
			b := &q.slots[w<<6+bits.TrailingZeros64(word)]
			word &= word - 1
			for _, i := range b.comps {
				fits = packEvent(&buf[off+int(i-base)], b.time-now, compShift) && fits
			}
			for _, i := range b.fills {
				fits = packEvent(&buf[off+int(i-base)], b.time-now, fillShift) && fits
			}
		}
	}
	for _, ev := range q.far.a {
		shift := uint(compShift)
		if ev.fill {
			shift = fillShift
		}
		fits = packEvent(&buf[off+int(ev.op-base)], ev.time-now, shift) && fits
	}
	if !fits {
		o.cur = buf
		return base, false
	}
	if o.mem != nil {
		buf = o.mem.AppendState(buf, now) //daelint:hotpath-ok ShiftableMem is a MemModel: an external interface, not auditable
	}
	o.cur = buf
	o.curCnt = s.counters(o.curCnt[:0], fills, now)
	return base, true
}

// A snapshot packs each op into one word: its lifecycle state (2 bits),
// its pending dependence count (pendingBits) and the time to its pending
// completion and fill events, plus one (eventBits each, 0 for none). A
// sample with a value too wide for its field is neither compared nor
// saved, so such a run simply skips nothing.
const (
	pendingBits = 14
	eventBits   = 24
	compShift   = 2 + pendingBits
	fillShift   = compShift + eventBits
)

// packEvent records in an op's snapshot word, at bit shift, an event due
// dt cycles from now. It reports false when dt does not fit.
//
//daelint:hotpath
func packEvent(w *int64, dt int64, shift uint) bool {
	if dt+1 >= 1<<eventBits {
		return false
	}
	*w |= (dt + 1) << shift
	return true
}

// counters appends the run's additive counters to dst: per core Issued,
// BusyCycles, OccIntegral, IssuedByKind and IssueHist, then Fills and
// the cycle.
//
//daelint:hotpath
func (s *Sim) counters(dst []int64, fills, now int64) []int64 {
	for u := s.u0; u < s.u1; u++ {
		st := &s.cores[u].stats
		dst = append(dst, st.Issued, st.BusyCycles, st.OccIntegral)
		dst = append(dst, st.IssuedByKind[:]...)
		dst = append(dst, st.IssueHist...)
	}
	return append(dst, fills, now)
}

// skip jumps j orbits of d ops from the state just sampled (equal to the
// saved sample, shifted by d ops). The orbits replay the one between the
// two samples, which touched ops from the saved base up to the current
// frontier plus reach. The caller chose j with frontier + ahead + j·d <=
// hi, where ahead covers reach and each core's next op, so every op the
// replays touch stays inside the periodic run, and so does the next op
// of each core's stream: no replay sees a stream run out or the program
// end that the first orbit did not. In the AU pass of a split run it
// also records the jump (s.jump) and writes the times of the ops its
// landing state covers: each replays the op d before it, one orbit
// later. byHi records whether the periodic run's end bounded j. It
// returns the cycle and completed count after the jump.
//
//daelint:hotpath
func (s *Sim) skip(p *Program, res *Result, cycle int64, completed int, base, front, d, j int32, byHi bool) (int64, int) {
	o := &s.orb
	per := o.per
	jd := j * d
	orbitCycles := cycle - o.savedCnt[len(o.savedCnt)-1]
	dc := int64(j) * orbitCycles

	// Additive counters gain j orbits' worth; maxima stay.
	cur, sv := o.curCnt, o.savedCnt
	at := 0
	add := func(v *int64) { //daelint:hotpath-ok non-escaping closure over locals, called inline below
		*v += int64(j) * (cur[at] - sv[at])
		at++
	}
	for u := s.u0; u < s.u1; u++ {
		st := &s.cores[u].stats
		add(&st.Issued)
		add(&st.BusyCycles)
		add(&st.OccIntegral)
		for k := range st.IssuedByKind {
			add(&st.IssuedByKind[k])
		}
		for k := range st.IssueHist {
			add(&st.IssueHist[k])
		}
	}
	add(&res.Fills)

	top := max(min(front+per.reach, int32(len(p.kinds))), base)
	if o.kind == passAU {
		// Every op that issues during the jump is one the saved state
		// had not issued (at or above top, nothing had); it replays the
		// op d below, which issued earlier in the true run. Below top
		// such an op's times are written now, from the op d below:
		// recorded, or written by this loop. Above the newest op issued
		// so far and below the landing base, every op issues during the
		// jump: s.jump resolves them (auTime). Ops that issue only after
		// the jump are written when they do.
		lo := base
		for x := base; x < top; x++ {
			if p.units[x] != 0 {
				continue
			}
			if s.state[x] >= stIssued {
				lo = x + 1
			} else {
				s.tDone[x] = s.tDone[x-d] + orbitCycles
				s.tFill[x] = s.tFill[x-d] + orbitCycles
			}
		}
		s.jump = auJump{lo: lo, hi: base + jd, d: d, dc: orbitCycles}
	}

	// Op-indexed state: the covered range moves up jd ops, and every op
	// it leaves behind has completed.
	copy(s.state[base+jd:top+jd], s.state[base:top])
	copy(s.pending[base+jd:top+jd], s.pending[base:top])
	fillDone(s.state[base : base+jd])
	clear(s.pending[base : base+jd])
	if o.kind == passAU {
		// The landing state's issued ops above the jumped stretch issued
		// during the jump too, and the cycle loop will not write them.
		// The op d below issued before each of them, so its time is
		// written or resolved.
		for x := max(top, base+jd); x < top+jd; x++ {
			if p.units[x] == 0 && s.state[x] >= stIssued {
				s.tDone[x] = s.auTime(s.tDone, x-d) + orbitCycles
				s.tFill[x] = s.auTime(s.tFill, x-d) + orbitCycles
			}
		}
	}

	ops := 0
	for u := s.u0; u < s.u1; u++ {
		c := &s.cores[u]
		if c.next > 0 {
			// Ready bits lie in [issueFrontier, next); rebuilt below.
			clear(c.readyBits[c.issueFrontier>>6 : (c.next-1)>>6+1])
		}
		sh := int(jd / per.p * per.cnt[u])
		c.next += sh
		if o.inOrder {
			c.retirePtr += sh
		}
		// The lazy pointers move with the state: every position they
		// pass over is issued or done, before the jump and after it.
		c.issueFrontier += sh
		c.donePtr += sh
		c.lastTouch = cycle + dc
		ops += sh
	}
	for i := base + jd; i < top+jd; i++ {
		if s.state[i] == stInWindow && s.pending[i] == 0 {
			c, pos := &s.cores[p.units[i]], p.posInStream[i]
			c.readyBits[pos>>6] |= 1 << uint(pos&63)
		}
	}
	o.evs = s.cq.shift(o.evs, cycle, dc, jd)
	if o.mem != nil {
		o.mem.Shift(dc) //daelint:hotpath-ok ShiftableMem is a MemModel: an external interface, not auditable
	}
	st, k := &o.stats, o.kind.slot()
	st.skipped[k] += ops
	st.jumps[k]++
	st.landed[k], st.orbit[k], st.byHi[k] = front+jd, d, byHi
	return cycle + dc, completed + ops
}

// fillDone marks every op of b completed, at memmove speed.
//
//daelint:hotpath
func fillDone(b []uint8) {
	if len(b) == 0 {
		return
	}
	b[0] = stDone
	for k := 1; k < len(b); k *= 2 {
		copy(b[k:], b[:k])
	}
}
