package lower

import (
	"math/rand"
	"testing"
	"testing/quick"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/kernel"
	"daesim/internal/partition"
	"daesim/internal/trace"
)

// mustTrace builds a trace from authored instructions that must be valid.
func mustTrace(name string, instrs []trace.Instr) *trace.Trace {
	tr, err := trace.New(name, instrs...)
	if err != nil {
		panic(err)
	}
	return tr
}

func tm(md int) isa.Timing { return isa.Timing{MD: md, FPLat: 3, CopyLat: 1} }

func simpleTrace() *trace.Trace {
	return mustTrace("t", []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x1000},
		{Class: isa.FPALU, Args: []int32{1}},
		{Class: isa.Store, Addr: []int32{0}, Args: []int32{2}, MemAddr: 0x2000},
	})
}

// dmOf partitions tr under pol and lowers it for the DM.
func dmOf(tr *trace.Trace, pol partition.Policy) (*engine.Program, error) {
	asg, err := partition.Partition(tr, pol)
	if err != nil {
		return nil, err
	}
	return DM(tr, asg)
}

// copiesOf returns p's register copies by the unit that issues them: a
// copy runs on the unit holding the value, so [isa.AU] counts AU→DU
// copies and [isa.DU] DU→AU copies.
func copiesOf(p *engine.Program) (byUnit [2]int) {
	for _, op := range p.Ops() {
		if op.Kind == isa.OpCopy {
			byUnit[op.Unit]++
		}
	}
	return byUnit
}

func TestDMOpShapes(t *testing.T) {
	p, err := dmOf(simpleTrace(), partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	c := p.KindCounts()
	if c[isa.OpLoadSend] != 1 || c[isa.OpLoadRecv] != 1 {
		t.Errorf("load lowering wrong: %v", c)
	}
	if c[isa.OpStoreAddr] != 1 || c[isa.OpStoreData] != 1 {
		t.Errorf("store lowering wrong: %v", c)
	}
	if c[isa.OpInt] != 1 || c[isa.OpFP] != 1 {
		t.Errorf("compute lowering wrong: %v", c)
	}
	if c[isa.OpCopy] != 0 {
		t.Errorf("no copies expected, got %d", c[isa.OpCopy])
	}
	// Memory halves: send on AU, recv on DU.
	for _, op := range p.Ops() {
		switch op.Kind {
		case isa.OpLoadSend, isa.OpStoreAddr:
			if op.Unit != isa.AU {
				t.Errorf("%v on %v", op.Kind, op.Unit)
			}
		case isa.OpLoadRecv, isa.OpFP, isa.OpStoreData:
			if op.Unit != isa.DU {
				t.Errorf("%v on %v", op.Kind, op.Unit)
			}
		}
	}
}

func TestSWSMOpShapes(t *testing.T) {
	p, err := SWSM(simpleTrace())
	if err != nil {
		t.Fatal(err)
	}
	c := p.KindCounts()
	if c[isa.OpPrefetch] != 2 || c[isa.OpAccess] != 1 || c[isa.OpStoreAcc] != 1 {
		t.Errorf("memory lowering wrong: %v", c)
	}
	if p.NumUnits != 1 {
		t.Errorf("numUnits = %d", p.NumUnits)
	}
	// Every memory operation is exactly two machine ops.
	if got := c[isa.OpPrefetch] + c[isa.OpAccess] + c[isa.OpStoreAcc]; got != 4 {
		t.Errorf("mem ops = %d, want 4 (2 per memory instruction)", got)
	}
}

func TestLossOfDecouplingCopy(t *testing.T) {
	// fp; int(fp); load(addr=int); fp(load): the int on the AU consumes a
	// DU value, forcing a DU→AU copy.
	tr := mustTrace("lod", []trace.Instr{
		{Class: isa.FPALU},
		{Class: isa.IntALU, Args: []int32{0}},
		{Class: isa.Load, Addr: []int32{1}, MemAddr: 0x100},
		{Class: isa.FPALU, Args: []int32{2}},
	})
	p, err := dmOf(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	c := copiesOf(p)
	if c[isa.DU] != 1 {
		t.Errorf("DU→AU copies = %d, want 1", c[isa.DU])
	}
	if c[isa.AU] != 0 {
		t.Errorf("AU→DU copies = %d, want 0", c[isa.AU])
	}
}

func TestAUtoDUCopy(t *testing.T) {
	// int; fp(int): FP consumes an AU integer value.
	tr := mustTrace("audu", []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.FPALU, Args: []int32{0}},
	})
	p, err := dmOf(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	if c := copiesOf(p); c[isa.AU] != 1 || c[isa.DU] != 0 {
		t.Errorf("copies = %d/%d, want 1/0", c[isa.AU], c[isa.DU])
	}
}

func TestCopyMemoized(t *testing.T) {
	// One AU value consumed by two FP ops: only one copy.
	tr := mustTrace("memo", []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.FPALU, Args: []int32{0}},
		{Class: isa.FPALU, Args: []int32{0}},
	})
	p, err := dmOf(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	if c := copiesOf(p); c[isa.AU] != 1 {
		t.Errorf("copies = %d, want 1 (memoized)", c[isa.AU])
	}
}

func TestDualDeliveryLoad(t *testing.T) {
	// A load consumed both as an address (AU) and by FP (DU).
	tr := mustTrace("dual", []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x100},
		{Class: isa.IntALU, Args: []int32{1}},
		{Class: isa.Load, Addr: []int32{2}, MemAddr: 0x200},
		{Class: isa.FPALU, Args: []int32{1}},
	})
	p, err := dmOf(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	c := p.KindCounts()
	if c[isa.OpLoadRecv] != 3 { // load1 delivered twice, load3 once
		t.Errorf("receives = %d, want 3", c[isa.OpLoadRecv])
	}
}

func TestLoweredProgramsRun(t *testing.T) {
	b := kernel.New("k")
	arr := b.Array("a", 128, 8)
	var carry kernel.Val
	for i := 0; i < 16; i++ {
		idx := b.Int()
		v := b.Load(arr, i, idx)
		f := b.FP(v)
		if carry.Valid() {
			f = b.FP(f, carry)
		}
		carry = f
		b.Store(arr, i+16, f, idx)
	}
	tr := b.MustTrace()

	dm, err := dmOf(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := SWSM(tr)
	if err != nil {
		t.Fatal(err)
	}
	dmCfg := engine.Config{Timing: tm(30), Cores: []isa.CoreConfig{{Window: 16, IssueWidth: 4}, {Window: 16, IssueWidth: 5}}}
	swCfg := engine.Config{Timing: tm(30), Cores: []isa.CoreConfig{{Window: 16, IssueWidth: 9}}}
	rd, err := engine.Run(dm, dmCfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := engine.Run(sw, swCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Cycles <= 0 || rs.Cycles <= 0 {
		t.Fatalf("degenerate cycles: dm=%d swsm=%d", rd.Cycles, rs.Cycles)
	}
	// Lower bound: neither machine can beat the dataflow limit.
	if rd.Cycles < dm.DataflowTime(tm(30)) {
		t.Error("DM beat its dataflow limit")
	}
	if rs.Cycles < sw.DataflowTime(tm(30)) {
		t.Error("SWSM beat its dataflow limit")
	}
}

// randomKernel emits a random but well-formed kernel trace.
func randomKernel(rng *rand.Rand, steps int) *trace.Trace {
	b := kernel.New("prop")
	arr := b.Array("a", 1024, 8)
	ints := []kernel.Val{b.Int()}
	fps := []kernel.Val{}
	pickInt := func() kernel.Val { return ints[rng.Intn(len(ints))] }
	for i := 0; i < steps; i++ {
		switch rng.Intn(6) {
		case 0:
			ints = append(ints, b.Int(pickInt()))
		case 1:
			if len(fps) > 0 {
				// data-dependent address computation (loss of decoupling)
				ints = append(ints, b.Int(fps[rng.Intn(len(fps))]))
			}
		case 2:
			v := b.Load(arr, rng.Intn(1024), pickInt())
			if rng.Intn(2) == 0 {
				fps = append(fps, b.FP(v))
			} else {
				ints = append(ints, b.Int(v)) // self-load
			}
		case 3:
			if len(fps) > 0 {
				fps = append(fps, b.FP(fps[rng.Intn(len(fps))]))
			} else {
				fps = append(fps, b.FP(pickInt()))
			}
		case 4:
			if len(fps) > 0 {
				b.Store(arr, rng.Intn(1024), fps[rng.Intn(len(fps))], pickInt())
			}
		default:
			b.Store(arr, rng.Intn(1024), pickInt(), pickInt())
		}
	}
	return b.MustTrace()
}

// Property: lowering always yields valid programs on every policy, and
// both machines respect the dataflow bound.
func TestLoweringProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomKernel(rng, int(sz)+5)
		sw, err := SWSM(tr)
		if err != nil {
			t.Logf("swsm: %v", err)
			return false
		}
		for _, pol := range partition.Policies() {
			asg, err := partition.Partition(tr, pol)
			if err != nil {
				t.Logf("partition(%v): %v", pol, err)
				return false
			}
			dm, err := DM(tr, asg)
			if err != nil {
				t.Logf("dm(%v): %v", pol, err)
				return false
			}
			// Conservation: every trace instruction appears; compute ops map
			// one-to-one plus copies; memory ops lower to >= 2 ops.
			st := tr.Stats()
			c := dm.KindCounts()
			if c[isa.OpInt] != st.ByClass[isa.IntALU] || c[isa.OpFP] != st.ByClass[isa.FPALU] {
				t.Logf("dm(%v): compute op mismatch", pol)
				return false
			}
			if c[isa.OpLoadSend] != st.ByClass[isa.Load] || c[isa.OpStoreAddr] != st.ByClass[isa.Store] {
				t.Logf("dm(%v): memory op mismatch", pol)
				return false
			}
			if c[isa.OpLoadRecv] < st.ByClass[isa.Load] {
				t.Logf("dm(%v): missing receives", pol)
				return false
			}
			// The counting walk sizes the builder for the building walk.
			if n := walkDM(tr, asg, nil); n != dm.Len() {
				t.Logf("dm(%v): counting walk gives %d ops, the program has %d", pol, n, dm.Len())
				return false
			}
		}
		cs := sw.KindCounts()
		st := tr.Stats()
		// SWSM's sizing rule: one op per instruction, one more per memory
		// instruction.
		if sw.Len() != st.Total+st.MemRefs {
			t.Logf("swsm: %d ops for %d instructions and %d memory references", sw.Len(), st.Total, st.MemRefs)
			return false
		}
		if cs[isa.OpPrefetch] != st.MemRefs || cs[isa.OpAccess] != st.ByClass[isa.Load] || cs[isa.OpStoreAcc] != st.ByClass[isa.Store] {
			t.Log("swsm: memory op mismatch")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: with unlimited resources the DM and SWSM reach their dataflow
// limits, and those limits differ only by copy latencies on the critical
// path.
func TestUnlimitedLoweredRuns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomKernel(rng, 60)
		dm, err1 := dmOf(tr, partition.Classic)
		sw, err2 := SWSM(tr)
		if err1 != nil || err2 != nil {
			return false
		}
		big := []isa.CoreConfig{{Window: 0, IssueWidth: 1 << 20}, {Window: 0, IssueWidth: 1 << 20}}
		rd, err := engine.Run(dm, engine.Config{Timing: tm(20), Cores: big})
		if err != nil {
			return false
		}
		rs, err := engine.Run(sw, engine.Config{Timing: tm(20), Cores: big[:1]})
		if err != nil {
			return false
		}
		if rd.Cycles != dm.DataflowTime(tm(20)) || rs.Cycles != sw.DataflowTime(tm(20)) {
			return false
		}
		// The SWSM dataflow limit can never exceed the DM's: the DM program
		// is the SWSM program plus copy ops on paths.
		if rs.Cycles > rd.Cycles {
			t.Logf("seed %d: swsm dataflow %d > dm %d", seed, rs.Cycles, rd.Cycles)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
