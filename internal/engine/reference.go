package engine

// ReferenceRun is the seed engine's map-and-heap event loop, kept
// verbatim as a differential-testing oracle for the calendar-queue,
// structure-of-arrays engine in sim.go. Its per-run allocation behaviour
// is terrible — that is why it was replaced — but its semantics define
// the engine: Sim.Run must produce bit-identical Results (see
// TestCalendarQueueMatchesReference, and FuzzWorkgenDifferential in
// internal/workgen, which drives both machines over generated workloads
// against it). It deliberately shares no derived program state with the
// SoA engine: Program.Ops rebuilds the authored ops from the primary
// slabs (kinds, units, sources, memSrcs, addrs, origs), and the
// dependence adjacency is rebuilt here from those ops, so a mistake in
// the derived consumer or stream slabs cannot cancel out of the
// comparison. It is exported for differential harnesses only; no
// production path calls it (it is not reachable from Sim.Run, so the
// versioned semantics surface does not include it).

import (
	"fmt"

	"daesim/internal/isa"
)

// refAdjacency is the seed engine's array-of-slices dependence structure,
// rebuilt from the authored ops independently of the Program's derived
// slabs.
type refAdjacency struct {
	streams   [][]int32 // per-unit op indices, program order
	consPlain [][]int32 // completion-edge consumers per op
	consFill  [][]int32 // fill-edge consumers per op (sends only)
	nDeps     []int32   // static dependence count per op
}

func refAdjacencyOf(ops []Op, numUnits int) *refAdjacency {
	a := &refAdjacency{
		streams:   make([][]int32, numUnits),
		consPlain: make([][]int32, len(ops)),
		consFill:  make([][]int32, len(ops)),
		nDeps:     make([]int32, len(ops)),
	}
	for i := range ops {
		op := &ops[i]
		for _, s := range op.Srcs {
			a.consPlain[s] = append(a.consPlain[s], int32(i))
			a.nDeps[i]++
		}
		if op.Kind.IsConsume() {
			a.consFill[op.MemSrc] = append(a.consFill[op.MemSrc], int32(i))
			a.nDeps[i]++
		}
		a.streams[op.Unit] = append(a.streams[op.Unit], int32(i))
	}
	return a
}

// refBucket collects the events that fire at one cycle.
type refBucket struct {
	comps []int32 // ops completing (free slot, wake plain consumers)
	fills []int32 // send ops whose fill arrives (wake fill consumers)
}

type refCoreRun struct {
	cfg       isa.CoreConfig
	stream    []int32
	next      int
	occ       int
	window    int
	ready     minHeap[int32]
	oldestPtr int
	retirePtr int
	lastOrig  int32
	stats     CoreStats
	lastTouch int64
}

func (c *refCoreRun) touch(cycle int64) {
	c.stats.OccIntegral += int64(c.occ) * (cycle - c.lastTouch)
	c.lastTouch = cycle
}

// ReferenceRun executes the program exactly as the seed engine did.
func ReferenceRun(p *Program, cfg Config) (*Result, error) {
	if err := cfg.Validate(p); err != nil {
		return nil, err
	}
	ops := p.Ops()
	n := len(ops)
	res := &Result{Ops: n, TraceLen: p.TraceLen, Cores: make([]CoreStats, p.NumUnits)}
	if n == 0 {
		return res, nil
	}
	if cfg.Mem != nil {
		cfg.Mem.Reset()
	}
	md := int64(cfg.Timing.MD)

	adj := refAdjacencyOf(ops, p.NumUnits)
	state := make([]uint8, n)
	pending := make([]int32, n)
	copy(pending, adj.nDeps)

	cores := make([]*refCoreRun, p.NumUnits)
	for u := range cores {
		cc := cfg.Cores[u]
		window := cc.Window
		if cc.Unlimited() {
			window = n + 1
		}
		hist := cc.IssueWidth + 1
		if hist > histCap {
			hist = histCap
		}
		cores[u] = &refCoreRun{
			cfg:      cc,
			stream:   adj.streams[u],
			window:   window,
			lastOrig: -1,
		}
		cores[u].stats.IssueHist = make([]int64, hist)
	}

	events := map[int64]*refBucket{}
	var eventTimes minHeap[int64]
	bucketAt := func(t int64) *refBucket {
		b := events[t]
		if b == nil {
			b = &refBucket{}
			events[t] = b
			eventTimes.push(t)
		}
		return b
	}

	completed := 0
	var cycle int64
	var inflight, maxInflight int
	var eswSamples, slipSamples int64
	var eswSum, slipSum int64

	wake := func(i int32) {
		pending[i]--
		if pending[i] == 0 && state[i] == stInWindow {
			cores[ops[i].Unit].ready.push(i)
		}
	}

	for completed < n {
		// 1. Fire events due now.
		if b, ok := events[cycle]; ok {
			for _, i := range b.comps {
				state[i] = stDone
				completed++
				if !cfg.RetireInOrder {
					c := cores[ops[i].Unit]
					c.touch(cycle)
					c.occ--
				}
				for _, consumer := range adj.consPlain[i] {
					wake(consumer)
				}
			}
			if cfg.RetireInOrder && len(b.comps) > 0 {
				for _, c := range cores {
					for c.retirePtr < c.next && state[c.stream[c.retirePtr]] == stDone {
						c.retirePtr++
						c.touch(cycle)
						c.occ--
					}
				}
			}
			for _, i := range b.fills {
				inflight--
				for _, consumer := range adj.consFill[i] {
					wake(consumer)
				}
			}
			delete(events, cycle)
		}

		// 2. Dispatch in program order, per core.
		for _, c := range cores {
			for k := 0; k < c.cfg.IssueWidth && c.occ < c.window && c.next < len(c.stream); k++ {
				i := c.stream[c.next]
				c.next++
				c.touch(cycle)
				c.occ++
				if c.occ > c.stats.MaxOcc {
					c.stats.MaxOcc = c.occ
				}
				state[i] = stInWindow
				c.lastOrig = ops[i].Orig
				if pending[i] == 0 {
					c.ready.push(i)
				}
			}
		}

		// 3. Issue oldest-first, per core.
		for _, c := range cores {
			issued := 0
			for issued < c.cfg.IssueWidth && !c.ready.empty() {
				i := c.ready.pop()
				issued++
				state[i] = stIssued
				op := &ops[i]
				c.stats.Issued++
				c.stats.IssuedByKind[op.Kind]++
				lat := int64(cfg.Timing.Latency(op.Kind))
				done := cycle + lat
				if op.Kind.IsSend() {
					arrive := done + md
					if cfg.Mem != nil {
						arrive = cfg.Mem.RequestFill(op.Addr, done)
						if arrive < done {
							return nil, fmt.Errorf("engine: memory model returned arrival %d before send %d", arrive, done)
						}
					}
					res.Fills++
					if len(adj.consFill[i]) > 0 || cfg.Mem != nil {
						inflight++
						if inflight > maxInflight {
							maxInflight = inflight
						}
						fb := bucketAt(arrive)
						fb.fills = append(fb.fills, i)
					}
					if cfg.HoldSendSlots {
						done = arrive
					}
				}
				cb := bucketAt(done)
				cb.comps = append(cb.comps, i)
			}
			if issued > 0 {
				c.stats.BusyCycles++
				h := issued
				if h >= len(c.stats.IssueHist) {
					h = len(c.stats.IssueHist) - 1
				}
				c.stats.IssueHist[h]++
			}
		}

		// 4. ESW and slippage sampling.
		if cfg.CollectESW {
			var youngest int32 = -1
			oldest := int32(-1)
			for _, c := range cores {
				if c.lastOrig > youngest {
					youngest = c.lastOrig
				}
				for c.oldestPtr < c.next && state[c.stream[c.oldestPtr]] == stDone {
					c.oldestPtr++
				}
				if c.oldestPtr < c.next {
					o := ops[c.stream[c.oldestPtr]].Orig
					if oldest == -1 || o < oldest {
						oldest = o
					}
				}
			}
			if oldest >= 0 && youngest >= oldest {
				esw := int64(youngest-oldest) + 1
				eswSum += esw
				eswSamples++
				if esw > res.MaxESW {
					res.MaxESW = esw
				}
			}
			if len(cores) == 2 && cores[0].lastOrig >= 0 && cores[1].lastOrig >= 0 {
				slip := int64(cores[0].lastOrig - cores[1].lastOrig)
				slipSum += slip
				slipSamples++
				if slip > res.MaxSlip {
					res.MaxSlip = slip
				}
			}
		}

		// 5. Advance time, fast-forwarding idle stretches.
		progressNext := false
		for _, c := range cores {
			if !c.ready.empty() || (c.next < len(c.stream) && c.occ < c.window) {
				progressNext = true
				break
			}
		}
		if progressNext {
			cycle++
			continue
		}
		if completed == n {
			break
		}
		next := int64(-1)
		for !eventTimes.empty() {
			t := eventTimes.pop()
			if _, ok := events[t]; ok && t > cycle {
				next = t
				break
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("engine: deadlock at cycle %d with %d/%d ops complete", cycle, completed, n)
		}
		cycle = next
	}

	res.Cycles = cycle
	for u, c := range cores {
		c.touch(cycle)
		res.Cores[u] = c.stats
	}
	res.MaxFillsInFlight = maxInflight
	res.MemHits = memHits(cfg.Mem)
	if eswSamples > 0 {
		res.AvgESW = float64(eswSum) / float64(eswSamples)
	}
	if slipSamples > 0 {
		res.AvgSlip = float64(slipSum) / float64(slipSamples)
	}
	return res, nil
}

// ReferenceLowerBound is Sim.LowerBound's oracle: the same width-free
// recurrence over whole per-op arrays of the authored Op structs, every
// op computed, nothing skipped and no ring reused. Sim.LowerBound must
// equal it exactly (TestLowerBoundMatchesOracle, TestLowerBoundCatalog,
// FuzzLowerBound). Like ReferenceRun it is exported for differential
// harnesses only.
func ReferenceLowerBound(p *Program, cfg Config) int64 {
	n := p.Len()
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
	d := cc.IssueWidth
	ops := p.Ops()
	disp, ret := make([]int64, n), make([]int64, n)
	done, arr := make([]int64, n), make([]int64, n)
	for i := range ops {
		op := &ops[i]
		t := int64(0)
		if i > 0 {
			t = disp[i-1]
		}
		if i >= d {
			t = max(t, disp[i-d]+1)
		}
		if cfg.RetireInOrder && !cc.Unlimited() && i >= cc.Window {
			t = max(t, ret[i-cc.Window])
		}
		disp[i] = t
		for _, s := range op.Srcs {
			t = max(t, done[s])
		}
		if op.Kind.IsConsume() {
			t = max(t, arr[op.MemSrc])
		}
		t += int64(cfg.Timing.Latency(op.Kind))
		arr[i] = t
		if op.Kind.IsSend() {
			arr[i] = t + md
			if cfg.HoldSendSlots {
				t = arr[i]
			}
		}
		done[i] = t
		ret[i] = t
		if i > 0 {
			ret[i] = max(t, ret[i-1])
		}
	}
	iw := int64(cc.IssueWidth)
	return max(ret[n-1], (int64(n)+iw-1)/iw)
}
