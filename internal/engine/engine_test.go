package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"daesim/internal/isa"
)

func tm(md int) isa.Timing { return isa.Timing{MD: md, FPLat: 3, CopyLat: 1} }

func oneCore(window, width int) []isa.CoreConfig {
	return []isa.CoreConfig{{Window: window, IssueWidth: width}}
}

func mustRun(t *testing.T, p *Program, cfg Config) *Result {
	t.Helper()
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestEmptyProgram(t *testing.T) {
	p := MustProgram("empty", nil, 1, 0)
	r := mustRun(t, p, Config{Timing: tm(0), Cores: oneCore(8, 2)})
	if r.Cycles != 0 || r.Ops != 0 {
		t.Fatalf("empty program: %+v", r)
	}
}

func TestSingleOp(t *testing.T) {
	p := MustProgram("one", []Op{{Kind: isa.OpInt, MemSrc: NoDep}}, 1, 1)
	r := mustRun(t, p, Config{Timing: tm(0), Cores: oneCore(8, 2)})
	if r.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1", r.Cycles)
	}
	if r.Cores[0].Issued != 1 || r.Cores[0].IssuedByKind[isa.OpInt] != 1 {
		t.Fatalf("issue stats wrong: %+v", r.Cores[0])
	}
}

// intChain builds a serial chain of n int ops on one core.
func intChain(n int) *Program {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: isa.OpInt, MemSrc: NoDep, Orig: int32(i)}
		if i > 0 {
			ops[i].Srcs = []int32{int32(i - 1)}
		}
	}
	return MustProgram("chain", ops, 1, n)
}

func TestDependentChainIsSerial(t *testing.T) {
	p := intChain(10)
	r := mustRun(t, p, Config{Timing: tm(0), Cores: oneCore(64, 4)})
	if r.Cycles != 10 {
		t.Fatalf("cycles = %d, want 10 (1 IPC dependent chain)", r.Cycles)
	}
}

func TestIndependentOpsLimitedByWidth(t *testing.T) {
	n := 24
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: isa.OpInt, MemSrc: NoDep, Orig: int32(i)}
	}
	p := MustProgram("indep", ops, 1, n)
	for _, width := range []int{1, 2, 3, 4, 8} {
		r := mustRun(t, p, Config{Timing: tm(0), Cores: oneCore(0, width)})
		want := int64((n + width - 1) / width)
		if r.Cycles != want {
			t.Errorf("width %d: cycles = %d, want %d", width, r.Cycles, want)
		}
	}
}

func TestWindowOneSerializes(t *testing.T) {
	// int -> load(send,recv) -> fp, window 1: every op must complete before
	// the next dispatches.
	ops := []Op{
		{Kind: isa.OpInt, MemSrc: NoDep},
		{Kind: isa.OpLoadSend, Srcs: []int32{0}, MemSrc: NoDep},
		{Kind: isa.OpLoadRecv, MemSrc: 1},
		{Kind: isa.OpFP, Srcs: []int32{2}, MemSrc: NoDep},
	}
	p := MustProgram("serial", ops, 1, 4)
	md := 10
	r := mustRun(t, p, Config{Timing: tm(md), Cores: oneCore(1, 4)})
	// int: 0->1; send dispatched at 1, completes 2; fill at 2+10=12;
	// recv dispatched at 2 but not ready until 12, completes 13;
	// fp dispatched 13, completes 16.
	if r.Cycles != 16 {
		t.Fatalf("cycles = %d, want 16", r.Cycles)
	}
}

func TestLoadUseLatency(t *testing.T) {
	// addr -> send -> recv -> fp with ample resources: md+6 cycles total.
	ops := []Op{
		{Kind: isa.OpInt, MemSrc: NoDep},
		{Kind: isa.OpLoadSend, Srcs: []int32{0}, MemSrc: NoDep},
		{Kind: isa.OpLoadRecv, MemSrc: 1},
		{Kind: isa.OpFP, Srcs: []int32{2}, MemSrc: NoDep},
	}
	p := MustProgram("loaduse", ops, 1, 4)
	for _, md := range []int{0, 10, 60} {
		r := mustRun(t, p, Config{Timing: tm(md), Cores: oneCore(0, 9)})
		want := int64(md + 6)
		if r.Cycles != want {
			t.Errorf("md=%d: cycles = %d, want %d", md, r.Cycles, want)
		}
		if df := p.DataflowTime(tm(md)); df != want {
			t.Errorf("md=%d: dataflow time = %d, want %d", md, df, want)
		}
	}
}

func TestMaxOccupancyRespectsWindow(t *testing.T) {
	// Many independent sends+recvs with md large: window should fill.
	var ops []Op
	for i := 0; i < 40; i++ {
		ops = append(ops, Op{Kind: isa.OpLoadSend, MemSrc: NoDep, Orig: int32(i)})
		ops = append(ops, Op{Kind: isa.OpLoadRecv, MemSrc: int32(len(ops) - 1), Orig: int32(i)})
	}
	p := MustProgram("mem", ops, 1, 40)
	r := mustRun(t, p, Config{Timing: tm(30), Cores: oneCore(8, 4)})
	if r.Cores[0].MaxOcc > 8 {
		t.Fatalf("occupancy %d exceeded window 8", r.Cores[0].MaxOcc)
	}
	if r.Cores[0].MaxOcc != 8 {
		t.Fatalf("window should saturate: max occ %d", r.Cores[0].MaxOcc)
	}
}

// twoUnitProgram: AU sends n loads, DU receives and chains FP ops.
func twoUnitProgram(n int) *Program {
	var ops []Op
	prevFP := int32(-1)
	for i := 0; i < n; i++ {
		send := int32(len(ops))
		ops = append(ops, Op{Kind: isa.OpLoadSend, Unit: isa.AU, MemSrc: NoDep, Orig: int32(2 * i)})
		ops = append(ops, Op{Kind: isa.OpLoadRecv, Unit: isa.DU, MemSrc: send, Orig: int32(2 * i)})
		recv := int32(len(ops) - 1)
		fp := Op{Kind: isa.OpFP, Unit: isa.DU, Srcs: []int32{recv}, MemSrc: NoDep, Orig: int32(2*i + 1)}
		if prevFP >= 0 {
			fp.Srcs = append(fp.Srcs, prevFP)
		}
		ops = append(ops, fp)
		prevFP = int32(len(ops) - 1)
	}
	return MustProgram("twounit", ops, 2, 2*n)
}

func TestTwoUnitSlippageHidesLatency(t *testing.T) {
	n := 200
	p := twoUnitProgram(n)
	cores := []isa.CoreConfig{
		{Window: 16, IssueWidth: 4},
		{Window: 16, IssueWidth: 5},
	}
	r0 := mustRun(t, p, Config{Timing: tm(0), Cores: cores, CollectESW: true})
	r60 := mustRun(t, p, Config{Timing: tm(60), Cores: cores, CollectESW: true})
	// The FP chain is the critical path (3 cycles per link). With
	// decoupling, md=60 should cost only the startup transient, not
	// 60 cycles per load.
	if r60.Cycles > r0.Cycles+100 {
		t.Fatalf("decoupling failed to hide latency: md0=%d md60=%d", r0.Cycles, r60.Cycles)
	}
	// AU must run ahead under load: slippage and ESW should exceed the
	// window size at md=60.
	if r60.MaxSlip <= 16 {
		t.Errorf("max slip %d should exceed window 16", r60.MaxSlip)
	}
	if r60.MaxESW <= 32 {
		t.Errorf("max ESW %d should exceed the summed windows", r60.MaxESW)
	}
	if r60.MaxESW < r60.MaxSlip {
		t.Errorf("ESW %d < slip %d", r60.MaxESW, r60.MaxSlip)
	}
}

func TestDeterminism(t *testing.T) {
	p := twoUnitProgram(100)
	cfg := Config{Timing: tm(30), Cores: []isa.CoreConfig{{Window: 8, IssueWidth: 4}, {Window: 8, IssueWidth: 5}}, CollectESW: true}
	a := mustRun(t, p, cfg)
	b := mustRun(t, p, cfg)
	if a.Cycles != b.Cycles || a.MaxESW != b.MaxESW || a.AvgSlip != b.AvgSlip {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// randomProgram builds a valid random program spanning the given units.
func randomProgram(rng *rand.Rand, n, units int) *Program {
	var ops []Op
	var producers []int32 // ops usable as plain deps
	for len(ops) < n {
		u := isa.Unit(rng.Intn(units))
		pick := func() []int32 {
			if len(producers) == 0 || rng.Intn(3) == 0 {
				return nil
			}
			return []int32{producers[rng.Intn(len(producers))]}
		}
		switch rng.Intn(6) {
		case 0, 1:
			ops = append(ops, Op{Kind: isa.OpInt, Unit: u, Srcs: pick(), MemSrc: NoDep, Orig: int32(len(ops))})
			producers = append(producers, int32(len(ops)-1))
		case 2:
			ops = append(ops, Op{Kind: isa.OpFP, Unit: u, Srcs: pick(), MemSrc: NoDep, Orig: int32(len(ops))})
			producers = append(producers, int32(len(ops)-1))
		case 3:
			send := int32(len(ops))
			ops = append(ops, Op{Kind: isa.OpLoadSend, Unit: u, Srcs: pick(), MemSrc: NoDep, Orig: int32(len(ops))})
			ru := isa.Unit(rng.Intn(units))
			ops = append(ops, Op{Kind: isa.OpLoadRecv, Unit: ru, MemSrc: send, Orig: int32(len(ops))})
			producers = append(producers, int32(len(ops)-1))
		case 4:
			ops = append(ops, Op{Kind: isa.OpStoreAddr, Unit: u, Srcs: pick(), MemSrc: NoDep, Orig: int32(len(ops))})
		default:
			ops = append(ops, Op{Kind: isa.OpCopy, Unit: u, Srcs: pick(), MemSrc: NoDep, Orig: int32(len(ops))})
			producers = append(producers, int32(len(ops)-1))
		}
	}
	return authored("random", ops, units)
}

// authored builds the program of ops and panics unless Program.Ops
// rebuilds exactly the authored ops, a nil Srcs equal to an empty one.
// The oracles read the rebuilt ops, so this holds the source slab to
// what was authored.
func authored(name string, ops []Op, units int) *Program {
	p := MustProgram(name, ops, units, len(ops))
	same := func(a, b Op) bool {
		return a.Kind == b.Kind && a.Unit == b.Unit && slices.Equal(a.Srcs, b.Srcs) &&
			a.MemSrc == b.MemSrc && a.Addr == b.Addr && a.Orig == b.Orig
	}
	if !slices.EqualFunc(p.Ops(), ops, same) {
		panic(fmt.Sprintf("%s: Program.Ops differs from the authored ops", name))
	}
	return p
}

func TestUnlimitedResourcesMatchDataflowTime(t *testing.T) {
	f := func(seed int64, sz uint8, mdSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + rng.Intn(2)
		p := randomProgram(rng, int(sz)+2, units)
		md := int(mdSel % 61)
		cores := make([]isa.CoreConfig, units)
		for i := range cores {
			cores[i] = isa.CoreConfig{Window: 0, IssueWidth: 1 << 20}
		}
		r, err := Run(p, Config{Timing: tm(md), Cores: cores})
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		want := p.DataflowTime(tm(md))
		if r.Cycles != want {
			t.Logf("seed=%d md=%d: engine %d != dataflow %d", seed, md, r.Cycles, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneInWindow(t *testing.T) {
	// Oldest-first issue is greedy list scheduling, so enlarging the
	// window can produce small Graham anomalies; require monotonicity up
	// to a 2% slack.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + rng.Intn(2)
		p := randomProgram(rng, 120, units)
		prev := int64(-1)
		for _, w := range []int{2, 4, 8, 16, 64, 0} {
			cores := make([]isa.CoreConfig, units)
			for i := range cores {
				cores[i] = isa.CoreConfig{Window: w, IssueWidth: 3}
			}
			r, err := Run(p, Config{Timing: tm(20), Cores: cores})
			if err != nil {
				return false
			}
			if prev >= 0 && float64(r.Cycles) > 1.02*float64(prev)+2 {
				t.Logf("seed=%d: window %d slower than smaller window: %d > %d", seed, w, r.Cycles, prev)
				return false
			}
			prev = r.Cycles
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneInMD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, 150, 2)
		cores := []isa.CoreConfig{{Window: 12, IssueWidth: 4}, {Window: 12, IssueWidth: 5}}
		prev := int64(-1)
		for md := 0; md <= 60; md += 15 {
			r, err := Run(p, Config{Timing: tm(md), Cores: cores})
			if err != nil {
				return false
			}
			if r.Cycles < prev {
				t.Logf("seed=%d: md=%d faster than lower md: %d < %d", seed, md, r.Cycles, prev)
				return false
			}
			prev = r.Cycles
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIssueNeverExceedsWidth(t *testing.T) {
	p := randomProgram(rand.New(rand.NewSource(7)), 300, 2)
	cores := []isa.CoreConfig{{Window: 16, IssueWidth: 3}, {Window: 16, IssueWidth: 2}}
	r := mustRun(t, p, Config{Timing: tm(10), Cores: cores})
	for u, cs := range r.Cores {
		width := cores[u].IssueWidth
		for k, cnt := range cs.IssueHist {
			if k > width && cnt > 0 {
				t.Errorf("core %d issued %d ops in a cycle (width %d)", u, k, width)
			}
		}
		var histSum int64
		for k := 1; k < len(cs.IssueHist); k++ {
			histSum += int64(k) * cs.IssueHist[k]
		}
		if histSum != cs.Issued {
			t.Errorf("core %d: histogram sums to %d, issued %d", u, histSum, cs.Issued)
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	p := twoUnitProgram(50)
	r := mustRun(t, p, Config{Timing: tm(25), Cores: []isa.CoreConfig{{Window: 8, IssueWidth: 4}, {Window: 8, IssueWidth: 5}}})
	var issued int64
	for _, cs := range r.Cores {
		issued += cs.Issued
	}
	if issued != int64(r.Ops) {
		t.Fatalf("issued %d != ops %d", issued, r.Ops)
	}
	if r.Fills != 50 {
		t.Fatalf("fills = %d, want 50", r.Fills)
	}
	if r.MaxFillsInFlight < 1 {
		t.Fatal("no fills in flight recorded")
	}
	if r.IPC() <= 0 || r.OpsPerCycle() <= 0 {
		t.Fatalf("rates not positive: %v %v", r.IPC(), r.OpsPerCycle())
	}
}

func TestConfigValidation(t *testing.T) {
	p := intChain(3)
	if _, err := Run(p, Config{Timing: tm(0), Cores: nil}); err == nil {
		t.Error("missing cores accepted")
	}
	if _, err := Run(p, Config{Timing: isa.Timing{MD: -1, FPLat: 3, CopyLat: 1}, Cores: oneCore(4, 2)}); err == nil {
		t.Error("negative md accepted")
	}
	if _, err := Run(p, Config{Timing: tm(0), Cores: oneCore(4, 0)}); err == nil {
		t.Error("zero width accepted")
	}
}

func TestProgramValidation(t *testing.T) {
	cases := []struct {
		name  string
		ops   []Op
		units int
	}{
		{"bad unit", []Op{{Kind: isa.OpInt, Unit: 5, MemSrc: NoDep}}, 1},
		{"forward src", []Op{{Kind: isa.OpInt, Srcs: []int32{0}, MemSrc: NoDep}}, 1},
		{"consume without memsrc", []Op{{Kind: isa.OpLoadRecv, MemSrc: NoDep}}, 1},
		{"memsrc not a send", []Op{{Kind: isa.OpInt, MemSrc: NoDep}, {Kind: isa.OpLoadRecv, MemSrc: 0}}, 1},
		{"memsrc on plain op", []Op{{Kind: isa.OpLoadSend, MemSrc: NoDep}, {Kind: isa.OpInt, MemSrc: 0}}, 1},
		{"bad kind", []Op{{Kind: isa.OpKind(99), MemSrc: NoDep}}, 1},
	}
	for _, tc := range cases {
		if _, err := NewProgram(tc.name, tc.ops, tc.units, len(tc.ops)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewProgram("no units", nil, 0, 0); err == nil {
		t.Error("zero units accepted")
	}
}

// delayMem doubles the differential for every other request.
type delayMem struct {
	md    int64
	calls int
}

func (m *delayMem) RequestFill(addr uint64, sent int64) int64 {
	m.calls++
	if m.calls%2 == 0 {
		return sent + 2*m.md
	}
	return sent + m.md
}
func (m *delayMem) Reset() { m.calls = 0 }

func TestCustomMemModel(t *testing.T) {
	p := twoUnitProgram(20)
	cores := []isa.CoreConfig{{Window: 64, IssueWidth: 4}, {Window: 64, IssueWidth: 5}}
	base := mustRun(t, p, Config{Timing: tm(30), Cores: cores})
	slow := mustRun(t, p, Config{Timing: tm(30), Cores: cores, Mem: &delayMem{md: 30}})
	if slow.Cycles < base.Cycles {
		t.Fatalf("slower memory model finished earlier: %d < %d", slow.Cycles, base.Cycles)
	}
}

// badMem returns an arrival before the send to exercise engine checking.
type badMem struct{}

func (badMem) RequestFill(addr uint64, sent int64) int64 { return sent - 1 }
func (badMem) Reset()                                    {}

func TestBadMemModelRejected(t *testing.T) {
	p := twoUnitProgram(2)
	cores := []isa.CoreConfig{{Window: 4, IssueWidth: 4}, {Window: 4, IssueWidth: 5}}
	if _, err := Run(p, Config{Timing: tm(10), Cores: cores, Mem: badMem{}}); err == nil {
		t.Fatal("bad memory model accepted")
	}
}

func TestKindCountsAndStream(t *testing.T) {
	p := twoUnitProgram(10)
	c := p.KindCounts()
	if c[isa.OpLoadSend] != 10 || c[isa.OpLoadRecv] != 10 || c[isa.OpFP] != 10 {
		t.Fatalf("kind counts wrong: %v", c)
	}
	if len(p.Stream(isa.AU)) != 10 || len(p.Stream(isa.DU)) != 20 {
		t.Fatalf("streams wrong: %d %d", len(p.Stream(isa.AU)), len(p.Stream(isa.DU)))
	}
}

func TestFastForwardLongStall(t *testing.T) {
	// A single load with huge md: the engine must jump, not iterate.
	ops := []Op{
		{Kind: isa.OpLoadSend, MemSrc: NoDep},
		{Kind: isa.OpLoadRecv, MemSrc: 0},
	}
	p := MustProgram("stall", ops, 1, 2)
	r := mustRun(t, p, Config{Timing: isa.Timing{MD: 1_000_000, FPLat: 3, CopyLat: 1}, Cores: oneCore(4, 2)})
	if r.Cycles != 1_000_002 {
		t.Fatalf("cycles = %d, want 1000002", r.Cycles)
	}
}
