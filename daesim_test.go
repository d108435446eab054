package daesim_test

import (
	"testing"

	"daesim"
)

func TestQuickstartFlow(t *testing.T) {
	tr, err := daesim.Workload("FLO52Q", 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := daesim.NewSuite(tr, daesim.Classic)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := suite.RunDM(daesim.Params{Window: 64, MD: 60})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := suite.RunSWSM(daesim.Params{Window: 64, MD: 60})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Cycles >= sw.Cycles {
		t.Fatalf("headline result violated: DM %d, SWSM %d", dm.Cycles, sw.Cycles)
	}
	serial := daesim.SerialCycles(tr, daesim.DefaultTiming(60))
	if daesim.Speedup(serial, dm.Cycles) <= 1 {
		t.Fatal("DM speedup should exceed 1")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	specs := daesim.Workloads()
	if len(specs) != 7 {
		t.Fatalf("want 7 workloads, got %d", len(specs))
	}
	if _, err := daesim.Workload("NOPE", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCustomKernelThroughPublicAPI(t *testing.T) {
	b := daesim.NewKernel("custom")
	arr := b.Array("a", 64, 8)
	base := b.Int()
	var acc daesim.Val
	for i := 0; i < 32; i++ {
		v := b.Load(arr, i%64, base)
		if acc.Valid() {
			acc = b.FP(v, acc)
		} else {
			acc = b.FP(v)
		}
	}
	b.Store(arr, 0, acc, base)
	tr, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	suite, err := daesim.NewSuite(tr, daesim.Classic)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := suite.RunDM(daesim.Params{Window: 16, MD: 0})
	if err != nil {
		t.Fatal(err)
	}
	r60, err := suite.RunDM(daesim.Params{Window: 16, MD: 60})
	if err != nil {
		t.Fatal(err)
	}
	if r60.Cycles < r0.Cycles {
		t.Fatal("md=60 should not be faster than md=0")
	}
}

func TestMemoryModelsThroughPublicAPI(t *testing.T) {
	tr, err := daesim.Workload("TRACK", 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := daesim.NewSuite(tr, daesim.Classic)
	if err != nil {
		t.Fatal(err)
	}
	bypass, err := daesim.BypassSpec(128)
	if err != nil {
		t.Fatal(err)
	}
	base, err := suite.RunDM(daesim.Params{Window: 64, MD: 60})
	if err != nil {
		t.Fatal(err)
	}
	with, err := suite.RunDM(daesim.Params{Window: 64, MD: 60, Mem: bypass})
	if err != nil {
		t.Fatal(err)
	}
	if with.Cycles > base.Cycles {
		t.Fatalf("bypass should not hurt: %d vs %d", with.Cycles, base.Cycles)
	}
	if with.MemHits <= 0 || with.MemHits > with.Fills {
		t.Fatalf("bypass should observe hits on TRACK's strided measurements: %d of %d fills", with.MemHits, with.Fills)
	}
	if base.MemHits != 0 {
		t.Fatalf("the fixed differential reports %d hits, want 0", base.MemHits)
	}
}

func TestEquivalentWindowThroughPublicAPI(t *testing.T) {
	tr, err := daesim.Workload("MDG", 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := daesim.NewSuite(tr, daesim.Classic)
	if err != nil {
		t.Fatal(err)
	}
	ratio, ok, err := daesim.EquivalentWindowRatio(daesim.NewRunner(suite), daesim.Params{Window: 50, MD: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("search saturated")
	}
	if ratio < 1.0 || ratio > 8.0 {
		t.Fatalf("ratio %.2f out of expected band", ratio)
	}
}
