package engine

import (
	"fmt"
	"math/bits"

	"daesim/internal/isa"
)

// Sim is a reusable simulation context: the per-run scratch state (op
// lifecycle, dependence counters, per-core window state, ready heaps and
// the calendar event queue) survives between runs, so repeated Run calls
// on warm scratch allocate almost nothing beyond the returned Result.
//
// A Sim is not safe for concurrent use; give each worker goroutine its
// own (see sweep.Runner.RunAll). The package-level Run function draws
// from a shared pool and is safe from any goroutine.
type Sim struct {
	state   []uint8
	pending []int32
	cores   []coreRun
	cq      calQueue
	orb     orbit
	// lb is the lower bound's scratch (lowerbound.go).
	lb lbScratch
	// u0 and u1 bound the cores the current pass simulates.
	u0, u1 int
	// The split run's scratch (split.go): per-op AU completion and fill
	// times, and the DU ops' inputs once dispatched; and the AU pass's
	// jump.
	tDone, tFill []int64
	jump         auJump
	// lat caches cfg.Timing.Latency per op kind for the current run.
	lat [isa.NumOpKinds]int64
	// horizon is the calendar horizon the current run's timing needs.
	horizon int64
}

// NewSim returns an empty simulation context. Scratch buffers grow on
// first use and are retained for subsequent runs.
func NewSim() *Sim { return &Sim{} }

type coreRun struct {
	cfg    isa.CoreConfig
	stream []int32
	next   int // dispatch frontier within stream
	occ    int
	window int // effective window (large number when unlimited)
	// readyBits is the ready set: one bit per stream position.
	// Oldest-first selection is a TrailingZeros64 scan from
	// issueFrontier — within one core's stream, position order equals op
	// index order, so the scan pops exactly what a min-heap would,
	// without sift traffic.
	readyBits  []uint64
	readyCount int
	// issueFrontier is the oldest stream position whose bit could still
	// be set (everything below is issued or done); it only advances.
	issueFrontier int
	oldestPtr     int // lazy pointer to oldest possibly-in-flight stream position
	donePtr       int // lazy pointer to oldest possibly-incomplete stream position (steady-state skip)
	retirePtr     int // in-order retirement frontier (RetireInOrder only)
	lastOrig      int32
	stats         CoreStats
	lastTouch     int64
}

// touch accrues window occupancy up to cycle (ESW integral).
//
//daelint:hotpath
func (c *coreRun) touch(cycle int64) {
	c.stats.OccIntegral += int64(c.occ) * (cycle - c.lastTouch)
	c.lastTouch = cycle
}

// enqueue marks the op at stream position pos ready for issue.
//
//daelint:hotpath
func (c *coreRun) enqueue(pos int32) {
	c.readyBits[pos>>6] |= 1 << uint(pos&63)
	c.readyCount++
}

// readyEmpty reports whether no op is ready to issue.
//
//daelint:hotpath
func (c *coreRun) readyEmpty() bool { return c.readyCount == 0 }

const histCap = 32

// reset sizes the scratch for program p under cfg and clears it.
func (s *Sim) reset(p *Program, cfg Config) {
	n := len(p.kinds)
	if cap(s.state) < n {
		s.state = make([]uint8, n)
	} else {
		s.state = s.state[:n]
		clear(s.state)
	}
	if cap(s.pending) < n {
		s.pending = make([]int32, n)
	} else {
		s.pending = s.pending[:n]
	}
	copy(s.pending, p.nDeps)

	if cap(s.cores) < p.NumUnits {
		s.cores = make([]coreRun, p.NumUnits)
	} else {
		s.cores = s.cores[:p.NumUnits]
	}
	for u := range s.cores {
		cc := cfg.Cores[u]
		window := cc.Window
		if cc.Unlimited() {
			window = n + 1
		}
		hist := cc.IssueWidth + 1
		if hist > histCap {
			hist = histCap
		}
		c := &s.cores[u]
		readyBits := c.readyBits
		stream := p.Stream(isa.Unit(u))
		words := (len(stream) + 63) / 64
		if cap(readyBits) < words {
			readyBits = make([]uint64, words)
		} else {
			readyBits = readyBits[:words]
			clear(readyBits)
		}
		// IssueHist escapes with the Result, so it must be fresh each run.
		*c = coreRun{
			cfg:       cc,
			stream:    stream,
			window:    window,
			readyBits: readyBits,
			lastOrig:  -1,
		}
		c.stats.IssueHist = make([]int64, hist)
	}

	maxLat := 1
	if cfg.Timing.FPLat > maxLat {
		maxLat = cfg.Timing.FPLat
	}
	if cfg.Timing.CopyLat > maxLat {
		maxLat = cfg.Timing.CopyLat
	}
	// +2 covers the completion cycle and the fill's sent->arrive hop.
	s.horizon = int64(maxLat) + int64(cfg.Timing.MD) + 2
	s.cq.reset(s.horizon)

	for k := range s.lat {
		s.lat[k] = int64(cfg.Timing.Latency(isa.OpKind(k)))
	}
}

// wake delivers one dependence edge to op i.
//
//daelint:hotpath
func (s *Sim) wake(p *Program, i int32) {
	s.pending[i]--
	if s.pending[i] == 0 && s.state[i] == stInWindow {
		s.cores[p.units[i]].enqueue(p.posInStream[i])
	}
}

// Run executes the program under the configuration and returns
// statistics. Runs are deterministic: identical inputs produce identical
// results, regardless of which (or how warm a) Sim executes them.
//
// A decoupled program (Program.splittable: the AU never reads a DU value
// and the DU never sends) without ESW sampling runs as two single-core
// passes, the AU first and then the DU against the times the AU's values
// reach it (split.go); any other run simulates every core at once. Either
// way the Result is the one the joint cycle loop produces.
//
//daelint:hotpath
func (s *Sim) Run(p *Program, cfg Config) (*Result, error) {
	if err := cfg.Validate(p); err != nil { //daelint:hotpath-ok one validation pass before the cycle loop starts
		return nil, err
	}
	n := len(p.kinds)
	// The returned Result and its Cores slice are 2 of the run's pinned
	// allocations (TestSimReuseAllocs): caller-owned, so they cannot live
	// in scratch.
	//daelint:hotpath-ok caller-owned Result and Cores slice, allocated once per run
	res := &Result{Ops: n, TraceLen: p.TraceLen, Cores: make([]CoreStats, p.NumUnits)}
	s.orb.stats = skipStats{}
	if n == 0 {
		return res, nil
	}
	if cfg.Mem != nil {
		cfg.Mem.Reset() //daelint:hotpath-ok once per run; MemModel is an external interface, not auditable
	}
	s.reset(p, cfg) //daelint:hotpath-ok setup: scratch (re)allocation happens once, before the cycle loop
	var err error
	if !cfg.CollectESW && p.splittable() {
		err = s.runSplit(p, &cfg, res)
	} else {
		res.Cycles, err = s.pass(p, &cfg, res, passJoint)
	}
	if err != nil {
		return nil, err
	}
	res.MemHits = memHits(cfg.Mem) //daelint:hotpath-ok once per run; MemModel is an external interface, not auditable
	return res, nil
}

// pass runs the cycle loop over the cores the pass kind makes active
// and returns the cycle of the last completion among their ops. It
// writes those cores' statistics into res, and Fills, MaxFillsInFlight
// and the ESW and slippage figures when the pass is the one that
// produces them.
//
// The cycle loop is: fire due events; dispatch in program order per
// core; issue oldest-first per core; sample ESW/slippage; advance time,
// jumping over idle stretches via the calendar queue. Event order within
// a cycle never affects the outcome: completions and fills only
// decrement dependence counters and set ready bits, and issue pops the
// bits in op order alone.
//
//daelint:hotpath
func (s *Sim) pass(p *Program, cfg *Config, res *Result, kind passKind) (int64, error) {
	u0, u1 := kind.units(p.NumUnits)
	s.u0, s.u1 = u0, u1
	n := int(p.streamOff[u1] - p.streamOff[u0])
	md := int64(cfg.Timing.MD)
	// rec records each AU op's completion and fill times for the DU pass;
	// ext records, as each DU op dispatches, when its input arrives or,
	// ready already, the complement of the dispatch cycle (split.go).
	rec := kind == passAU
	var ext []int64
	if kind == passDU {
		ext = s.tDone
	}
	cores := s.cores[u0:u1]
	s.orbitBegin(p, cfg, kind)

	completed := 0
	var cycle int64
	var inflight, maxInflight int
	var eswSamples, slipSamples int64
	var eswSum, slipSum int64

	for completed < n {
		// 0. At a sampled period boundary, look for a repeated state and
		// skip the orbits it repeats (orbit.go). Every op below the
		// anchor has completed only once the active cores' ops below it
		// have.
		if s.orb.on && completed >= s.orb.need && s.anchorDone(s.orb.anchor) {
			cycle, completed = s.orbitStep(p, res, cycle, completed, inflight)
		}

		// 1. Fire events due now.
		s.cq.drain(cycle)
		if b := s.cq.fire(cycle); b != nil {
			for _, i := range b.comps {
				s.state[i] = stDone
				completed++
				if !cfg.RetireInOrder {
					c := &s.cores[p.units[i]]
					c.touch(cycle)
					c.occ--
				}
				for _, consumer := range p.plainConsumers(i) {
					s.wake(p, consumer)
				}
			}
			if cfg.RetireInOrder && len(b.comps) > 0 {
				// Reclaim slots in program order up to the oldest
				// incomplete op of each core.
				for u := range cores {
					c := &cores[u]
					for c.retirePtr < c.next && s.state[c.stream[c.retirePtr]] == stDone {
						c.retirePtr++
						c.touch(cycle)
						c.occ--
					}
				}
			}
			if ext != nil {
				// In the DU pass the fill list carries external
				// deliveries: each entry is the DU op whose last AU
				// input arrives now.
				for _, i := range b.fills {
					s.wake(p, i)
				}
			} else {
				for _, i := range b.fills {
					inflight--
					for _, consumer := range p.fillConsumers(i) {
						s.wake(p, consumer)
					}
				}
			}
			s.cq.clearBucket(b)
		}

		// 2. Dispatch in program order, per core (batched: the admission
		// count is known up front, so the window/stream bounds are checked
		// once instead of per op).
		for u := range cores {
			c := &cores[u]
			k := c.cfg.IssueWidth
			if avail := c.window - c.occ; k > avail {
				k = avail
			}
			if rem := len(c.stream) - c.next; k > rem {
				k = rem
			}
			if k <= 0 {
				continue
			}
			c.touch(cycle)
			base := c.next
			for j := 0; j < k; j++ {
				i := c.stream[base+j]
				if ext != nil {
					t, pend := s.extTime(p, i)
					if t > cycle {
						// An AU value this op reads is still on its
						// way: deliver it when it arrives.
						pend++
						s.cq.schedule(cycle, t, i, true)
						ext[i] = t
					} else {
						ext[i] = ^cycle // ready at dispatch
					}
					s.pending[i] = pend
				}
				s.state[i] = stInWindow
				if s.pending[i] == 0 {
					c.enqueue(int32(base + j))
				}
			}
			c.next = base + k
			c.occ += k
			if c.occ > c.stats.MaxOcc {
				c.stats.MaxOcc = c.occ
			}
			if cfg.CollectESW {
				c.lastOrig = p.origs[c.stream[c.next-1]]
			}
		}

		// 3. Issue oldest-first, per core: scan the ready bitmap upward
		// from the issue frontier, which pops ready ops in ascending
		// position — identical to heap order.
		for u := range cores {
			c := &cores[u]
			scan := 0
			if c.readyCount > 0 {
				// Advance the frontier past ops that can never become ready
				// again; amortized O(stream) over the whole run.
				fr := c.issueFrontier
				for fr < c.next && s.state[c.stream[fr]] >= stIssued {
					fr++
				}
				c.issueFrontier = fr
				scan = fr
			}
			issued := 0
			for issued < c.cfg.IssueWidth && c.readyCount > 0 {
				// Next set bit at position >= scan; one exists because
				// readyCount > 0 and all set bits are >= the frontier,
				// ascending past prior pops (no bits are set mid-loop).
				w := scan >> 6
				word := c.readyBits[w] &^ (1<<uint(scan&63) - 1)
				for word == 0 {
					w++
					word = c.readyBits[w]
				}
				pos := w<<6 + bits.TrailingZeros64(word)
				c.readyBits[w] &^= 1 << uint(pos&63)
				c.readyCount--
				scan = pos + 1
				i := c.stream[pos]
				issued++
				s.state[i] = stIssued
				kind := p.kinds[i]
				flag := p.flags[i]
				c.stats.Issued++
				c.stats.IssuedByKind[kind]++
				done := cycle + s.lat[kind]
				if flag&opFlagSend != 0 {
					arrive := done + md
					if cfg.Mem != nil {
						arrive = cfg.Mem.RequestFill(p.addrs[i], done) //daelint:hotpath-ok MemModel is an external interface; custom models opt out of the alloc pin
						if arrive < done {
							//daelint:hotpath-ok cold exit: a broken memory model aborts the run
							return 0, fmt.Errorf("engine: memory model returned arrival %d before send %d", arrive, done)
						}
					}
					res.Fills++
					if rec {
						s.tFill[i] = arrive
					}
					if flag&opFlagFillCons != 0 || cfg.Mem != nil {
						inflight++
						if inflight > maxInflight {
							maxInflight = inflight
						}
						s.cq.schedule(cycle, arrive, i, true)
					}
					if cfg.HoldSendSlots {
						// The send occupies its slot until the fill returns.
						done = arrive
					}
				}
				if rec {
					s.tDone[i] = done
				}
				s.cq.schedule(cycle, done, i, false)
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
			for u := range cores {
				c := &cores[u]
				if c.lastOrig > youngest {
					youngest = c.lastOrig
				}
				for c.oldestPtr < c.next && s.state[c.stream[c.oldestPtr]] == stDone {
					c.oldestPtr++
				}
				if c.oldestPtr < c.next {
					o := p.origs[c.stream[c.oldestPtr]]
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
		for u := range cores {
			c := &cores[u]
			if !c.readyEmpty() || (c.next < len(c.stream) && c.occ < c.window) {
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
		// Jump to the next event; one must exist or the program deadlocked.
		next := s.cq.nextAfter(cycle)
		if next < 0 {
			//daelint:hotpath-ok cold exit: deadlock aborts the run
			return 0, fmt.Errorf("engine: deadlock at cycle %d with %d/%d ops complete", cycle, completed, n)
		}
		cycle = next
	}

	// The pass ends at its last completion time.
	for u := range cores {
		c := &cores[u]
		c.touch(cycle)
		res.Cores[u0+u] = c.stats
	}
	if kind != passDU {
		res.MaxFillsInFlight = maxInflight
	}
	if eswSamples > 0 {
		res.AvgESW = float64(eswSum) / float64(eswSamples)
	}
	if slipSamples > 0 {
		res.AvgSlip = float64(slipSum) / float64(slipSamples)
	}
	return cycle, nil
}
