package engine

import (
	"slices"

	"daesim/internal/isa"
)

// The certified lower bound (DESIGN.md §3, "A width-free lower bound").
// A one-core run is a max-plus schedule: every op dispatches, issues and
// completes as early as its constraints allow. Dropping the one
// constraint that makes the schedule hard to compute, the issue width,
// leaves a recurrence over ops in program order that no real run can
// beat. With D the dispatch width (a core dispatches as many ops a cycle
// as it may issue), W the window and lat the op's latency:
//
//	disp_i = max(disp_{i-1}, disp_{i-D}+1, ret_{i-W})
//	iss_i  = max(disp_i, done_s for each source s, arr_m for the fill m)
//	done_i = iss_i + lat_i
//	arr_i  = done_i + MD (sends)
//	ret_i  = max(done_i, ret_{i-1})
//
// and the bound is max(ret_{n-1}, ⌈n/IssueWidth⌉). Each term is a step
// of the cycle loop: an op fires, then dispatches into the freed slot,
// then issues, all in one cycle; in-order retirement frees the slot of
// op i-W at ret_{i-W}; a fill never arrives before done + MD. A held send
// completes when its fill arrives. Retirement at completion frees slots
// out of order, so that run drops the window term. A memory model that
// may answer sooner than MD (a bypass buffer, a cache) has no bound here:
// LowerBound returns 0 for it, and for ESW runs and multi-core programs.
//
// The recurrence reads each op's sources within the program's longest
// edge, so its values live in ring buffers. Over a program's periodic
// run it skips its own steady state the way Run does: the state at an
// op boundary is the last D dispatch times, the last W retirement times
// and the done and fill times within the period's reach, all relative
// to the last dispatch time; when a later sample repeats an earlier one
// exactly, every op between them repeats shifted by the same time, and
// so does every orbit after them up to the end of the periodic run.

// DelayMem is a memory model that only ever delays fills: RequestFill
// never answers before the send's cycle plus MinFill. LowerBound bounds
// runs under such a model (memsys.Outstanding) and under none.
type DelayMem interface {
	MemModel
	// MinFill is the fewest cycles after its send any fill arrives.
	MinFill() int64
}

// lbScratch is a Sim's lower-bound state: ring buffers of the
// recurrence's times, indexed by op modulo their power-of-two lengths,
// and the Brent samples of the steady-state skip.
type lbScratch struct {
	disp, ret, done, arr []int64
	saved, cur           []int64
	// skipped counts the ops the last bound jumped over (tests).
	skipped int
}

// ring returns buf resized to a power of two above need, every slot set
// to fill.
func ring(buf []int64, need int, fill int64) []int64 {
	size := 1
	for size <= need {
		size <<= 1
	}
	if cap(buf) < size {
		buf = make([]int64, size)
	}
	buf = buf[:size]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// edgeReach returns the program's longest dependence edge, found on
// first use.
func (p *Program) edgeReach() int32 {
	p.reachOnce.Do(func() { p.reach = p.reachIn(0, int32(len(p.kinds))) })
	return p.reach
}

// LowerBound returns a lower bound on the Cycles of Run(p, cfg) drawn on
// a Sim from the shared pool, or 0 where there is none (see
// Sim.LowerBound).
func (p *Program) LowerBound(cfg Config) int64 {
	s := simPool.Get().(*Sim)
	lb := s.LowerBound(p, cfg)
	simPool.Put(s)
	return lb
}

// LowerBound returns a lower bound on the Cycles of Run(p, cfg): the
// width-free schedule above. It is 0 for an invalid configuration, a
// program of more than one unit, ESW sampling, and a memory model that
// is not a DelayMem. The bound reads neither the addresses nor the
// memory model's state: it asks the model only for its MinFill. On warm
// scratch it allocates nothing.
func (s *Sim) LowerBound(p *Program, cfg Config) int64 {
	n := len(p.kinds)
	if p.NumUnits != 1 || n == 0 || cfg.CollectESW || cfg.Validate(p) != nil {
		return 0
	}
	md := int64(cfg.Timing.MD)
	if cfg.Mem != nil {
		dm, ok := cfg.Mem.(DelayMem)
		if !ok {
			return 0
		}
		md = dm.MinFill()
	}
	cc := cfg.Cores[0]
	w := 0 // the window term's distance; 0 when it cannot bind
	if cfg.RetireInOrder && !cc.Unlimited() && cc.Window < n {
		w = cc.Window
	}
	// The dispatch term binds only below n ops and, with a window term,
	// below W: every latency is at least 1, so ret_{i-W} > disp_{i-W}.
	d := min(cc.IssueWidth, n)
	if w > 0 {
		d = min(d, w)
	}
	for k := range s.lat {
		s.lat[k] = int64(cfg.Timing.Latency(isa.OpKind(k)))
	}
	b := &s.lb
	b.skipped = 0
	// Before op 0, disp is -1 and ret 0: the first D ops dispatch at
	// cycle 0 and the first W slots are free.
	b.disp = ring(b.disp, d, -1)
	b.ret = ring(b.ret, w, 0)
	b.done = ring(b.done, int(p.edgeReach()), 0)
	b.arr = ring(b.arr, int(p.edgeReach()), 0)
	dm, rm, am := len(b.disp)-1, len(b.ret)-1, len(b.arr)-1

	// The skip samples an anchor every step ops from lo while a repeat
	// still leaves room for a jump.
	per := p.orbitPeriod()
	reach := int(per.reach)
	var step, next int
	skip := per.p > 0
	if skip {
		// As in Run, a sample costs about its span, so every half span
		// keeps sampling cheap next to the ops between samples.
		span := d + w + 2*reach
		step = max(1, (span+2*int(per.p)-1)/(2*int(per.p))) * int(per.p)
		// The first sample needs only every time it reads to lie at
		// or past op 0, one window, dispatch width or reach into the
		// periodic run; twice that lets most runs settle first, so the
		// second sample already repeats it. A step may come sooner.
		next = int(per.lo) + min(step, 2*max(d, w, reach))
		skip = next+2*step <= int(per.hi)
	}
	have, k := false, 0
	savedA, savedBase := 0, int64(0)

	var r int64 // ret_{i-1}, the running maximum completion
	for i := 0; i < n; {
		if !skip {
			r = b.run(p, &s.lat, i, n, d, w, md, cfg.HoldSendSlots, r)
			break
		}
		r = b.run(p, &s.lat, i, next, d, w, md, cfg.HoldSendSlots, r)
		i = next
		// The state at anchor i, every op below it done, relative to
		// disp_{i-1}.
		k++
		next += step
		base := b.disp[(i-1)&dm]
		cur := b.cur[:0]
		for j := i - d; j < i; j++ {
			cur = append(cur, b.disp[j&dm]-base)
		}
		if w > 0 {
			for j := i - w; j < i; j++ {
				cur = append(cur, b.ret[j&rm]-base)
			}
		} else {
			cur = append(cur, r-base)
		}
		for j := i - reach; j < i; j++ {
			cur = append(cur, b.done[j&am]-base, b.arr[j&am]-base)
		}
		b.cur = cur
		switch {
		case have && slices.Equal(cur, b.saved):
			// The ops from savedA repeat from i, shifted by the time
			// the dispatch front moved, and so does every later orbit
			// inside the periodic run: jump them, and rebuild the
			// rings at the landing.
			skip = false
			orbit := i - savedA
			jumps := (int(per.hi) - i) / orbit
			if jumps < 1 {
				continue
			}
			land := i + jumps*orbit
			base += int64(jumps) * (base - savedBase)
			at := 0
			for j := land - d; j < land; j++ {
				b.disp[j&dm] = cur[at] + base
				at++
			}
			if w > 0 {
				for j := land - w; j < land; j++ {
					b.ret[j&rm] = cur[at] + base
					at++
				}
				r = cur[at-1] + base
			} else {
				r = cur[at] + base
				at++
			}
			for j := land - reach; j < land; j++ {
				b.done[j&am], b.arr[j&am] = cur[at]+base, cur[at+1]+base
				at += 2
			}
			b.skipped += land - i
			i = land
			continue
		case k&(k-1) == 0:
			// Brent's tortoise: keep samples 1, 2, 4, ...
			b.cur, b.saved = b.saved, b.cur
			savedA, savedBase, have = i, base, true
		}
		if next+step > int(per.hi) {
			skip = false
		}
	}
	iw := int64(cc.IssueWidth)
	return max(r, (int64(n)+iw-1)/iw)
}

// run computes ops [from, to) of the recurrence on the rings and
// returns the running maximum completion, given r, its value before
// from. Which term of a maximum binds, how many sources an op has and
// whether it sends are all data-dependent, with patterns too long for a
// branch predictor, so the loop is branch-free up to two sources (every
// catalog op has at most two): an absent source or fill reads a clamped
// slot and counts as 0, which no time is below.
func (b *lbScratch) run(p *Program, lat *[isa.NumOpKinds]int64, from, to, d, w int, md int64, hold bool, r int64) int64 {
	// Unsigned masks, rings resliced to mask+1 and the program's slabs
	// to the ops computed let the compiler prove every index in range
	// and drop its bounds check.
	dm, rm, am := uint(len(b.disp)-1), uint(len(b.ret)-1), uint(len(b.arr)-1)
	disp, ret, done, arr := b.disp[:dm+1], b.ret[:rm+1], b.done[:am+1], b.arr[:am+1]
	srcOff, memSrcs, kinds, flags := p.srcOff[:to+1], p.memSrcs[:to], p.kinds[:to], p.flags[:to]
	srcDat := p.srcDat
	if len(srcDat) == 0 {
		srcDat = []int32{0}
	}
	last := int32(len(srcDat) - 1)
	var lt [16]int64
	copy(lt[:], lat[:])
	held := int64(0) // what a send adds to its own completion
	if hold {
		held = md
	}
	prev := disp[uint(from-1)&dm]
	for i := from; i < to; i++ {
		t := max(prev, disp[uint(i-d)&dm]+1)
		if w > 0 {
			t = max(t, ret[uint(i-w)&rm])
		}
		disp[uint(i)&dm] = t
		prev = t
		lo, hi := srcOff[i], srcOff[i+1]
		s0 := done[uint(srcDat[min(lo, last)])&am]
		s1 := done[uint(srcDat[min(lo+1, last)])&am]
		if hi-lo < 1 {
			s0 = 0
		}
		if hi-lo < 2 {
			s1 = 0
		}
		t = max(t, s0, s1)
		if hi-lo > 2 {
			for _, src := range srcDat[lo+2 : hi] {
				t = max(t, done[uint(src)&am])
			}
		}
		m := memSrcs[i]
		f := arr[uint(m)&am]
		if m == NoDep {
			f = 0
		}
		t = max(t, f) + lt[kinds[i]&15]
		send := int64(flags[i] & opFlagSend)
		a := t + md*send
		t += held * send
		done[uint(i)&am], arr[uint(i)&am] = t, a
		r = max(r, t)
		ret[uint(i)&rm] = r
	}
	return r
}
