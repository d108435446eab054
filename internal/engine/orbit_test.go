package engine

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"daesim/internal/isa"
	"daesim/internal/memsys"
)

// tiledProgram builds a loop-shaped program from the choices draw makes
// (draw(k) returns a value in [0, k)): a random prologue, reps copies
// of a random body whose edges are relative to the op, so that copy r
// reads the matching ops of copies r, r-1 and r-2, and a random
// epilogue. Edges that would reach before op 0 are dropped, so the
// first copies differ from the rest, as a real loop's first iterations
// do. A decoupled program drops every edge from unit 1 to unit 0 and
// puts every send on unit 0, so Run splits it (split.go). Sends carry a
// few distinct addresses, for the locality-aware memory models.
func tiledProgram(draw func(k int) int, units int, decoupled bool) *Program {
	var ops []Op
	add := func(kind isa.OpKind, u isa.Unit, srcs []int32, memSrc int32) {
		if decoupled && u == 0 {
			srcs = slices.DeleteFunc(srcs, func(s int32) bool { return ops[s].Unit != 0 })
		}
		op := Op{Kind: kind, Unit: u, Srcs: srcs, MemSrc: memSrc, Orig: int32(len(ops))}
		if kind.IsSend() {
			op.Addr = uint64(len(ops)%5) * 64
		}
		ops = append(ops, op)
	}
	// sender is the unit of a send drawn for unit u.
	sender := func(u isa.Unit) isa.Unit {
		if decoupled {
			return 0
		}
		return u
	}
	// randomOps appends k ops, each reading at most one of the 32 ops
	// before it.
	randomOps := func(k int) {
		for j := 0; j < k; j++ {
			u := isa.Unit(draw(units))
			var srcs []int32
			if len(ops) > 0 && draw(2) == 0 {
				srcs = []int32{int32(len(ops) - 1 - draw(min(len(ops), 32)))}
			}
			switch draw(4) {
			case 0:
				add(isa.OpLoadSend, sender(u), srcs, NoDep)
				add(isa.OpLoadRecv, isa.Unit(draw(units)), nil, int32(len(ops)-1))
			case 1:
				add(isa.OpFP, u, srcs, NoDep)
			default:
				add(isa.OpInt, u, srcs, NoDep)
			}
		}
	}
	randomOps(draw(24))

	// The body template: per op its kind, unit, relative sources and,
	// for a consume, the relative position of its send.
	type tmpl struct {
		kind   isa.OpKind
		unit   isa.Unit
		srcs   []int32
		memOff int32
	}
	bodyLen := 2 + draw(24)
	var body []tmpl
	for len(body) < bodyLen {
		u := isa.Unit(draw(units))
		var srcs []int32
		for k := draw(3); k > 0; k-- {
			srcs = append(srcs, int32(1+draw(2*bodyLen)))
		}
		switch draw(6) {
		case 0:
			body = append(body, tmpl{kind: isa.OpLoadSend, unit: sender(u), srcs: srcs})
			memOff := int32(1)
			if draw(2) == 0 {
				memOff += int32(bodyLen) // the previous copy's send
			}
			body = append(body, tmpl{kind: isa.OpLoadRecv, unit: isa.Unit(draw(units)), memOff: memOff})
		case 1:
			body = append(body, tmpl{kind: isa.OpFP, unit: u, srcs: srcs})
		case 2:
			body = append(body, tmpl{kind: isa.OpStoreAddr, unit: sender(u), srcs: srcs})
		case 3:
			body = append(body, tmpl{kind: isa.OpCopy, unit: u, srcs: srcs})
		default:
			body = append(body, tmpl{kind: isa.OpInt, unit: u, srcs: srcs})
		}
	}
	// The send a consume names is len(body) ops back in the previous
	// copy, so the template's length, not bodyLen, is the period.
	for t := range body {
		if body[t].memOff > 1 {
			body[t].memOff = int32(len(body)) + 1
		}
	}
	reps := 16 + draw(48)
	for r := 0; r < reps; r++ {
		for _, b := range body {
			i := int32(len(ops))
			var srcs []int32
			for _, d := range b.srcs {
				if i-d >= 0 {
					srcs = append(srcs, i-d)
				}
			}
			memSrc := NoDep
			if b.kind.IsConsume() {
				memSrc = i - b.memOff
				if memSrc < 0 || !ops[memSrc].Kind.IsSend() {
					memSrc = i - 1
				}
			}
			add(b.kind, b.unit, srcs, memSrc)
		}
	}
	randomOps(draw(24))
	return authored("tiled", ops, units)
}

// tiledConfig draws a configuration for a tiled program: finite windows
// (an unlimited one leaves nothing to skip; decoupled programs, which
// split whatever the windows, sometimes get one), widths that never bind,
// held sends, either retirement policy, sometimes a memory differential
// long enough to put events in the calendar's far heap and, sometimes,
// an Outstanding queue, which the skip carries across its jump.
// Decoupled programs sometimes get a bypass buffer instead, which only
// their AU pass sees.
func tiledConfig(draw func(k int) int, units int, decoupled bool) Config {
	cores := make([]isa.CoreConfig, units)
	for i := range cores {
		cores[i] = isa.CoreConfig{Window: 1 + draw(24), IssueWidth: 1 + draw(6)}
		if draw(4) == 0 {
			cores[i].IssueWidth = 1 << 20 // never binds: the bitmap drains whole
		}
		if decoupled && draw(8) == 0 {
			cores[i].Window = 0 // unlimited: nothing to skip, but the split holds
		}
	}
	md := draw(70)
	if draw(8) == 0 {
		md = 256 + draw(1024) // past the calendar wheel: far events
	}
	cfg := Config{
		Timing:        isa.Timing{MD: md, FPLat: 1 + draw(4), CopyLat: 1 + draw(2)},
		Cores:         cores,
		HoldSendSlots: draw(3) == 0,
		RetireInOrder: draw(2) == 0,
	}
	if draw(3) == 0 {
		m, err := memsys.NewOutstanding(int64(md), 1+draw(8))
		if err != nil {
			panic(err)
		}
		cfg.Mem = m
	}
	if decoupled && draw(4) == 0 {
		m, err := memsys.NewBypass(int64(md), 1+draw(4))
		if err != nil {
			panic(err)
		}
		cfg.Mem = m
	}
	return cfg
}

// skipMatchesReference runs p under cfg on a fresh Sim and through
// ReferenceRun, reports a mismatch, and returns what the Sim's skip did.
func skipMatchesReference(t *testing.T, p *Program, cfg Config) (st skipStats, ok bool) {
	t.Helper()
	sim := NewSim()
	ok = simMatchesReference(t, sim, p, cfg)
	return sim.orb.stats, ok
}

// simMatchesReference runs p under cfg on sim and through ReferenceRun,
// and reports a mismatch.
func simMatchesReference(t *testing.T, sim *Sim, p *Program, cfg Config) bool {
	t.Helper()
	got, gotErr := sim.Run(p, cfg)
	want, wantErr := ReferenceRun(p, cfg)
	if (gotErr == nil) != (wantErr == nil) {
		t.Errorf("%s: error mismatch: %v vs %v", p.Name, gotErr, wantErr)
		return false
	}
	if gotErr == nil && !resultsEqual(got, want) {
		t.Errorf("%s (%d ops, period %+v): skip %+v, result mismatch:\n engine:    %+v\n reference: %+v", p.Name, p.Len(), *p.orbitPeriod(), sim.orb.stats, got, want)
		return false
	}
	return true
}

// TestOrbitSkipMatchesReference checks the steady-state skip against the
// never-skipping reference over random tiled programs and
// configurations: every Result must be bit-identical, and the skip must
// actually fire on most of them.
func TestOrbitSkipMatchesReference(t *testing.T) {
	runs, fired := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + rng.Intn(2)
		p := tiledProgram(rng.Intn, units, false)
		st, ok := skipMatchesReference(t, p, tiledConfig(rng.Intn, units, false))
		runs++
		if st.skipped != [2]int{} {
			fired++
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if 2*fired < runs {
		t.Errorf("the skip fired on %d of %d tiled programs, want most", fired, runs)
	}
	t.Logf("the skip fired on %d of %d tiled programs", fired, runs)
}

// swsmLoop is twoUnitProgram's loop on one superscalar core: each
// iteration prefetches, accesses the fill and chains an FP op. Unlike
// the two-unit form, whose AU runs unboundedly ahead of the DU, the one
// window bounds the whole machine, so the state settles into an orbit.
func swsmLoop(n int) *Program {
	var ops []Op
	prevFP := int32(-1)
	for i := 0; i < n; i++ {
		send := int32(len(ops))
		ops = append(ops, Op{Kind: isa.OpPrefetch, MemSrc: NoDep, Orig: int32(2 * i)})
		ops = append(ops, Op{Kind: isa.OpAccess, MemSrc: send, Orig: int32(2 * i)})
		fp := Op{Kind: isa.OpFP, Srcs: []int32{int32(len(ops) - 1)}, MemSrc: NoDep, Orig: int32(2*i + 1)}
		if prevFP >= 0 {
			fp.Srcs = append(fp.Srcs, prevFP)
		}
		ops = append(ops, fp)
		prevFP = int32(len(ops) - 1)
	}
	return MustProgram("swsmloop", ops, 1, 2*n)
}

// TestOrbitSkipFallsBack pins the configurations that must simulate
// every cycle: ESW sampling, a memory model that is not a ShiftableMem,
// and events too far ahead to pack into a snapshot.
func TestOrbitSkipFallsBack(t *testing.T) {
	p := swsmLoop(400)
	cores := []isa.CoreConfig{{Window: 16, IssueWidth: 4}}
	for _, cfg := range []Config{
		{Timing: tm(30), Cores: cores, CollectESW: true},
		{Timing: tm(30), Cores: cores, Mem: &delayMem{md: 30}},
		{Timing: tm(1 << eventBits), Cores: cores},
	} {
		if st, ok := skipMatchesReference(t, p, cfg); ok && st.skipped != [2]int{} {
			t.Errorf("esw=%v mem=%T md=%d: skipped %d ops, want 0", cfg.CollectESW, cfg.Mem, cfg.Timing.MD, st.skipped)
		}
	}
	// The same program and core with no model, or an Outstanding queue,
	// do skip.
	queue, err := memsys.NewOutstanding(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mem := range []MemModel{nil, queue} {
		if st, _ := skipMatchesReference(t, p, Config{Timing: tm(30), Cores: cores, Mem: mem}); st.skipped == [2]int{} {
			t.Errorf("mem=%T: the periodic control run skipped nothing", mem)
		}
	}
}

// FuzzOrbitSkip builds a tiled program and configuration from the fuzz
// bytes and checks the skipping engine against ReferenceRun.
func FuzzOrbitSkip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 9, 3, 1, 0, 30, 2, 5, 1, 7, 0, 3, 2, 40, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := byteDraw(data)
		units := 1 + draw(2)
		p := tiledProgram(draw, units, false)
		skipMatchesReference(t, p, tiledConfig(draw, units, false))
	})
}

// byteDraw returns a draw for tiledProgram and tiledConfig that takes
// its choices from the fuzz input data, one byte each, and 0 once data
// runs out.
func byteDraw(data []byte) func(k int) int {
	pos := 0
	return func(k int) int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1]) % k
	}
}
