package engine

// ReferenceRun is the seed engine's map-and-heap event loop, kept
// verbatim as a differential-testing oracle for the calendar-queue,
// structure-of-arrays engine in sim.go. Its per-run allocation behaviour
// is terrible — that is why it was replaced — but its semantics define
// the engine: Sim.Run must produce bit-identical Results (see
// TestCalendarQueueMatchesReference, and FuzzWorkgenDifferential in
// internal/workgen, which drives both machines over generated workloads
// against it). It deliberately shares no derived program state with the
// SoA engine: the dependence adjacency is rebuilt here from the authored
// Op structs, so a mistake in the CSR flattening cannot cancel out of
// the comparison. It is exported for differential harnesses only; no
// production path calls it (it is not reachable from Sim.Run, so the
// versioned semantics surface does not include it).

import (
	"fmt"

	"daesim/internal/isa"
)

// refAdjacency is the seed engine's array-of-slices dependence structure,
// rebuilt from p.Ops independently of the Program's CSR slabs.
type refAdjacency struct {
	streams   [][]int32 // per-unit op indices, program order
	consPlain [][]int32 // completion-edge consumers per op
	consFill  [][]int32 // fill-edge consumers per op (sends only)
	nDeps     []int32   // static dependence count per op
}

func refAdjacencyOf(p *Program) *refAdjacency {
	a := &refAdjacency{
		streams:   make([][]int32, p.NumUnits),
		consPlain: make([][]int32, len(p.Ops)),
		consFill:  make([][]int32, len(p.Ops)),
		nDeps:     make([]int32, len(p.Ops)),
	}
	for i := range p.Ops {
		op := &p.Ops[i]
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
	ready     i32Heap
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
	n := len(p.Ops)
	res := &Result{Ops: n, TraceLen: p.TraceLen, Cores: make([]CoreStats, p.NumUnits)}
	if n == 0 {
		return res, nil
	}
	if cfg.Mem != nil {
		cfg.Mem.Reset()
	}
	md := int64(cfg.Timing.MD)

	adj := refAdjacencyOf(p)
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
	var eventTimes int64Heap
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
			cores[p.Ops[i].Unit].ready.push(i)
		}
	}

	for completed < n {
		// 1. Fire events due now.
		if b, ok := events[cycle]; ok {
			for _, i := range b.comps {
				state[i] = stDone
				completed++
				if !cfg.RetireInOrder {
					c := cores[p.Ops[i].Unit]
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
			dw := c.cfg.EffectiveDispatch()
			for k := 0; k < dw && c.occ < c.window && c.next < len(c.stream); k++ {
				i := c.stream[c.next]
				c.next++
				c.touch(cycle)
				c.occ++
				if c.occ > c.stats.MaxOcc {
					c.stats.MaxOcc = c.occ
				}
				state[i] = stInWindow
				c.lastOrig = p.Ops[i].Orig
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
				op := &p.Ops[i]
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
				if op.Kind.IsConsume() && cfg.Mem != nil {
					cfg.Mem.Consume(op.Addr, cycle)
				}
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
					o := p.Ops[c.stream[c.oldestPtr]].Orig
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
