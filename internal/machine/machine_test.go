package machine

import (
	"reflect"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/kernel"
	"daesim/internal/memsys"
	"daesim/internal/partition"
	"daesim/internal/trace"
	"daesim/internal/workloads"
)

// testTrace builds a small streaming kernel exercising both machines.
func testTrace() *trace.Trace {
	b := kernel.New("m")
	arr := b.Array("a", 512, 8)
	for i := 0; i < 64; i++ {
		base := b.Int()
		v := b.Load(arr, i, base)
		f := b.FPChain(2, v)
		b.Store(arr, 256+i, f, base)
	}
	return b.MustTrace()
}

func mustSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(testTrace(), partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKindString(t *testing.T) {
	if DM.String() != "DM" || SWSM.String() != "SWSM" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{Window: 32, MD: 60}
	tm := p.Timing()
	if tm.FPLat != isa.DefaultFPLat || tm.CopyLat != isa.DefaultCopyLat || tm.MD != 60 {
		t.Fatalf("timing defaults wrong: %+v", tm)
	}
	if p.auWidth() != isa.DefaultAUWidth || p.duWidth() != isa.DefaultDUWidth || p.swsmWidth() != isa.DefaultSWSMWidth {
		t.Fatal("width defaults wrong")
	}
	if p.auWindow() != 32 || p.duWindow() != 32 {
		t.Fatal("window defaults wrong")
	}
	p.AUWindow, p.DUWindow = 8, 16
	if p.auWindow() != 8 || p.duWindow() != 16 {
		t.Fatal("window overrides ignored")
	}
}

func TestRunBothKinds(t *testing.T) {
	s := mustSuite(t)
	for _, kind := range []Kind{DM, SWSM} {
		res, err := s.Run(kind, Params{Window: 16, MD: 30})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Cycles <= 0 {
			t.Fatalf("%v: no cycles", kind)
		}
	}
	if _, err := s.Run(Kind(7), Params{Window: 16}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestQueueModelSelection(t *testing.T) {
	// Default: window-scaled queue.
	m, err := Params{Window: 16, MD: 60}.queueModel()
	if err != nil || m == nil {
		t.Fatalf("default should produce a queue model: %v %v", m, err)
	}
	// Unlimited window: no queue.
	m, err = Params{Window: 0, MD: 60}.queueModel()
	if err != nil || m != nil {
		t.Fatalf("unlimited window should disable the queue: %v %v", m, err)
	}
	// Unbounded request.
	m, err = Params{Window: 16, MD: 60, MemQueue: Unbounded}.queueModel()
	if err != nil || m != nil {
		t.Fatalf("Unbounded should disable the queue: %v %v", m, err)
	}
	// Explicit capacity.
	m, err = Params{Window: 16, MD: 60, MemQueue: 5}.queueModel()
	if err != nil || m == nil {
		t.Fatalf("explicit capacity rejected: %v %v", m, err)
	}
	// Invalid.
	if _, err := (Params{Window: 16, MemQueue: -7}).queueModel(); err == nil {
		t.Fatal("invalid MemQueue accepted")
	}
}

func TestQueueBoundsHurtPerformance(t *testing.T) {
	s := mustSuite(t)
	tight, err := s.RunDM(Params{Window: 64, MD: 60, MemQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := s.RunDM(Params{Window: 64, MD: 60, MemQueue: Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Cycles <= loose.Cycles {
		t.Fatalf("tight queue should be slower: %d vs %d", tight.Cycles, loose.Cycles)
	}
}

func TestSerialCycles(t *testing.T) {
	tr := &trace.Trace{Instrs: []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}},
		{Class: isa.FPALU, Args: []int32{1}},
		{Class: isa.Store, Addr: []int32{0}, Args: []int32{2}},
	}}
	tm := isa.Timing{MD: 60, FPLat: 3, CopyLat: 1}
	// 1 + 61 + 3 + 1 = 66
	if got := SerialCycles(tr, tm); got != 66 {
		t.Fatalf("serial cycles = %d, want 66", got)
	}
	tm.MD = 0
	if got := SerialCycles(tr, tm); got != 6 {
		t.Fatalf("serial cycles md=0 = %d, want 6", got)
	}
}

func TestSerialSlowerThanMachines(t *testing.T) {
	s := mustSuite(t)
	for _, md := range []int{0, 30, 60} {
		serial := SerialCycles(s.Trace, Params{MD: md}.Timing())
		dm, err := s.RunDM(Params{Window: 64, MD: md})
		if err != nil {
			t.Fatal(err)
		}
		if dm.Cycles > serial {
			t.Errorf("md=%d: DM (%d) slower than serial (%d)", md, dm.Cycles, serial)
		}
	}
}

func TestPerfectCycles(t *testing.T) {
	s := mustSuite(t)
	perfect, err := s.PerfectCycles(DM, Params{Window: 32, MD: 60})
	if err != nil {
		t.Fatal(err)
	}
	md0, err := s.RunDM(Params{Window: 32, MD: 0})
	if err != nil {
		t.Fatal(err)
	}
	if perfect != md0.Cycles {
		t.Fatalf("perfect (%d) should equal md=0 run (%d)", perfect, md0.Cycles)
	}
}

func TestHoldSendSlotsNeverFaster(t *testing.T) {
	s := mustSuite(t)
	base, err := s.RunDM(Params{Window: 16, MD: 60})
	if err != nil {
		t.Fatal(err)
	}
	held, err := s.RunDM(Params{Window: 16, MD: 60, HoldSendSlots: true})
	if err != nil {
		t.Fatal(err)
	}
	if held.Cycles < base.Cycles {
		t.Fatalf("holding send slots should never help: %d vs %d", held.Cycles, base.Cycles)
	}
}

func TestCustomMemOverridesQueue(t *testing.T) {
	s := mustSuite(t)
	bp, err := memsys.BypassSpec(64)
	if err != nil {
		t.Fatal(err)
	}
	with, err := s.RunDM(Params{Window: 16, MD: 60, Mem: bp})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.RunDM(Params{Window: 16, MD: 60, MemQueue: 1, Mem: bp})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(with, queued) {
		t.Fatal("a memory spec must override MemQueue")
	}
	if with.Fills == 0 || with.MemHits == 0 {
		t.Fatalf("bypass model not consulted: %d hits of %d fills", with.MemHits, with.Fills)
	}
}

// TestMemSpecMatchesHandBuiltModel is the spec's differential check:
// on every catalog workload and both machines, the Result a spec point
// returns equals an engine run on a hand-constructed memsys model, and
// its counters equal the model's own: Fills its requests, MemHits its
// hits.
func TestMemSpecMatchesHandBuiltModel(t *testing.T) {
	const window, md = 64, 60
	bypass, err := memsys.BypassSpec(64)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec memsys.Spec
		// build returns the hand-built model and, for models that
		// count, a reader of its requests and hits after the run.
		build func() (engine.MemModel, func() (requests, hits int64))
	}{
		{memsys.Spec{}, func() (engine.MemModel, func() (int64, int64)) {
			m, err := memsys.NewOutstanding(md, QueueFactor*window)
			if err != nil {
				t.Fatal(err)
			}
			return m, nil
		}},
		{bypass, func() (engine.MemModel, func() (int64, int64)) {
			m, err := memsys.NewBypass(md, 64)
			if err != nil {
				t.Fatal(err)
			}
			return m, func() (int64, int64) { return m.Hits + m.Misses, m.Hits }
		}},
		{memsys.DefaultCacheSpec(), func() (engine.MemModel, func() (int64, int64)) {
			m, err := memsys.DefaultHierarchy(md)
			if err != nil {
				t.Fatal(err)
			}
			return m, func() (int64, int64) { return m.Misses + m.MemHits(), m.MemHits() }
		}},
	}
	for _, name := range workloads.Names() {
		tr, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSuite(tr, partition.Classic)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{DM, SWSM} {
			prog, err := s.Program(kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				p := Params{Window: window, MD: md, Mem: c.spec}
				got, err := s.Run(kind, p)
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := p.Config(kind)
				if err != nil {
					t.Fatal(err)
				}
				var counters func() (int64, int64)
				cfg.Mem, counters = c.build()
				want, err := engine.Run(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v %v: spec run differs from the hand-built model: %d vs %d cycles", name, kind, c.spec, got.Cycles, want.Cycles)
				}
				if counters == nil {
					continue
				}
				if req, hits := counters(); got.Fills != req || got.MemHits != hits {
					t.Errorf("%s %v %v: Result counts %d hits of %d fills, the model %d of %d requests", name, kind, c.spec, got.MemHits, got.Fills, hits, req)
				}
			}
		}
	}
}
