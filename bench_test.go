package daesim_test

// Benchmark harness: one benchmark per paper artifact (Table 1, Figures
// 4-9) plus engine microbenchmarks. Each artifact benchmark regenerates
// the table or figure end to end (workload construction, lowering,
// simulation sweep) and reports the artifact's headline number as a
// custom metric, so `go test -bench=.` both times the harness and prints
// the reproduced result.

import (
	"sync"
	"testing"

	"daesim"
	"daesim/internal/experiments"
	"daesim/internal/sweep"
)

// benchSuite caches lowered programs for the microbenchmarks only; the
// artifact benchmarks rebuild everything per iteration on purpose.
var (
	benchOnce  sync.Once
	benchFLO   *daesim.Suite
	benchTRACK *daesim.Suite
)

func suites(b *testing.B) (*daesim.Suite, *daesim.Suite) {
	b.Helper()
	benchOnce.Do(func() {
		for _, s := range []struct {
			name string
			dst  **daesim.Suite
		}{{"FLO52Q", &benchFLO}, {"TRACK", &benchTRACK}} {
			tr, err := daesim.Workload(s.name, 1)
			if err != nil {
				panic(err)
			}
			suite, err := daesim.NewSuite(tr, daesim.Classic)
			if err != nil {
				panic(err)
			}
			*s.dst = suite
		}
	})
	return benchFLO, benchTRACK
}

// programLen returns the op count of suite's program for kind.
func programLen(b *testing.B, suite *daesim.Suite, kind daesim.Kind) float64 {
	b.Helper()
	prog, err := suite.Program(kind)
	if err != nil {
		b.Fatal(err)
	}
	return float64(prog.Len())
}

// BenchmarkEngineDM measures simulation throughput of the decoupled
// machine at the paper's headline operating point (pool-backed scratch).
// Mops/s is effective throughput: every op of the program counts,
// including the ops of repeated orbits the steady-state skip jumps
// over (DESIGN.md §3), so it is not a per-op simulation cost.
func BenchmarkEngineDM(b *testing.B) {
	flo, _ := suites(b)
	ops := programLen(b, flo, daesim.DM)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flo.RunDM(daesim.Params{Window: 64, MD: 60})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkEngineSWSM measures simulation throughput of the
// superscalar machine (pool-backed scratch). Mops/s is effective
// throughput, as for BenchmarkEngineDM.
func BenchmarkEngineSWSM(b *testing.B) {
	flo, _ := suites(b)
	ops := programLen(b, flo, daesim.SWSM)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flo.RunSWSM(daesim.Params{Window: 64, MD: 60}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkEngineDMScratch is BenchmarkEngineDM on a caller-held Sim,
// the pattern sweep workers use: no pool round-trip, scratch stays warm
// for the goroutine's whole lifetime. Mops/s is effective throughput.
func BenchmarkEngineDMScratch(b *testing.B) {
	flo, _ := suites(b)
	ops := programLen(b, flo, daesim.DM)
	sim := daesim.NewSim()
	if _, err := flo.RunWith(sim, daesim.DM, daesim.Params{Window: 64, MD: 60}); err != nil {
		b.Fatal(err) // warm the scratch so growth isn't timed
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flo.RunWith(sim, daesim.DM, daesim.Params{Window: 64, MD: 60}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkEngineSWSMScratch is BenchmarkEngineSWSM on a caller-held Sim.
// Mops/s is effective throughput.
func BenchmarkEngineSWSMScratch(b *testing.B) {
	flo, _ := suites(b)
	ops := programLen(b, flo, daesim.SWSM)
	sim := daesim.NewSim()
	if _, err := flo.RunWith(sim, daesim.SWSM, daesim.Params{Window: 64, MD: 60}); err != nil {
		b.Fatal(err) // warm the scratch so growth isn't timed
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flo.RunWith(sim, daesim.SWSM, daesim.Params{Window: 64, MD: 60}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkEngineLowerBound measures the certified lower bound a search
// probe computes instead of simulating (DESIGN.md §3) at
// BenchmarkEngineSWSMScratch's point, on a caller-held Sim. Mops/s
// counts every op of the program, the jumped orbits included, as for
// the engine benchmarks.
func BenchmarkEngineLowerBound(b *testing.B) {
	flo, _ := suites(b)
	prog, err := flo.Program(daesim.SWSM)
	if err != nil {
		b.Fatal(err)
	}
	ops := float64(prog.Len())
	cfg, err := daesim.Params{Window: 64, MD: 60}.Config(daesim.SWSM)
	if err != nil {
		b.Fatal(err)
	}
	sim := daesim.NewSim()
	sim.LowerBound(prog, cfg) // warm the scratch so growth isn't timed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.LowerBound(prog, cfg)
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkLowering measures trace construction and machine lowering:
// the suite's partition, then both programs.
func BenchmarkLowering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := daesim.Workload("MDG", 1)
		if err != nil {
			b.Fatal(err)
		}
		suite, err := daesim.NewSuite(tr, daesim.Classic)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []daesim.Kind{daesim.DM, daesim.SWSM} {
			if _, err := suite.Program(kind); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (DM latency-hiding effectiveness
// for the seven programs, MD=60) and reports TRACK's unlimited-window
// LHE, the poorly-effective band's headline value.
func BenchmarkTable1(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		res, err := ctx.Table1()
		if err != nil {
			b.Fatal(err)
		}
		last = res.Rows[len(res.Rows)-1].Unlimited
	}
	b.ReportMetric(last, "LHE(TRACK,inf)")
}

// BenchmarkPolicyStudy regenerates the partition-policy study (P1) on a
// fresh Context over a persistent store filled before the timer starts,
// the warm path of repro -exp all: what it times is building the seven
// workloads and partitioning them under the classic policy,
// repartitioning each under the other two (unit assignment only),
// keying the suites and reading the stored points back, with the
// workloads fanned out across GOMAXPROCS workers. No pass lowers a
// program, and a pass that simulates anything fails the benchmark.
func BenchmarkPolicyStudy(b *testing.B) {
	store, err := sweep.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	fill := experiments.NewContext()
	fill.Cache = store
	if _, err := fill.PolicyStudy(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		ctx.Cache = store
		if _, err := ctx.PolicyStudy(); err != nil {
			b.Fatal(err)
		}
		if sims := ctx.CacheStats().Sims; sims != 0 {
			b.Fatalf("warm pass ran %d simulations, want 0", sims)
		}
	}
}

func benchFigure(b *testing.B, workload string) {
	var gap float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		res, err := ctx.Figure(workload)
		if err != nil {
			b.Fatal(err)
		}
		n := len(res.Series[2].Y) - 1
		gap = res.Series[2].Y[n] / res.Series[3].Y[n]
	}
	b.ReportMetric(gap, "DM/SWSM@w100,md60")
}

// BenchmarkFigure4 regenerates Figure 4 (FLO52Q speedup vs window) and
// reports the DM/SWSM speedup gap at window 100, MD=60.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, "FLO52Q") }

// BenchmarkFigure5 regenerates Figure 5 (MDG speedup vs window).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "MDG") }

// BenchmarkFigure6 regenerates Figure 6 (TRACK speedup vs window).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "TRACK") }

// benchRatioFigure also reports the simulations one figure costs
// (sims/op): the count is deterministic, so it tracks the search's probe
// path beside the timing.
func benchRatioFigure(b *testing.B, workload string) {
	var ratio float64
	var sims int64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		res, err := ctx.RatioFigure(workload)
		if err != nil {
			b.Fatal(err)
		}
		sims += ctx.CacheStats().Sims
		md60 := res.Series[len(res.Series)-1]
		// Ratio at the realistic DM window of 60 slots.
		for j, x := range md60.X {
			if x == 60 {
				ratio = md60.Y[j]
			}
		}
	}
	b.ReportMetric(ratio, "ratio@w60,md60")
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// BenchmarkFigure7 regenerates Figure 7 (FLO52Q equivalent window ratio)
// and reports the MD=60 ratio at a 60-slot DM window.
func BenchmarkFigure7(b *testing.B) { benchRatioFigure(b, "FLO52Q") }

// BenchmarkFigure8 regenerates Figure 8 (MDG equivalent window ratio).
func BenchmarkFigure8(b *testing.B) { benchRatioFigure(b, "MDG") }

// BenchmarkFigure9 regenerates Figure 9 (TRACK equivalent window ratio).
func BenchmarkFigure9(b *testing.B) { benchRatioFigure(b, "TRACK") }

// BenchmarkAblationSplit regenerates the A1 issue-width-split ablation
// point grid for TRACK.
func BenchmarkAblationSplit(b *testing.B) {
	_, track := suites(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, split := range [][2]int{{2, 7}, {4, 5}, {6, 3}} {
			if _, err := track.RunDM(daesim.Params{Window: 64, MD: 60, AUWidth: split[0], DUWidth: split[1]}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEquivalentWindowSearch measures one Figure 7-9 search step:
// finding the SWSM window matching a DM configuration. A fresh Runner
// per iteration keeps the measurement honest: nothing is memoized across
// iterations, so the number reflects a full cold search. sims/op is the
// probes the search simulated.
func BenchmarkEquivalentWindowSearch(b *testing.B) {
	flo, _ := suites(b)
	var sims int64
	for i := 0; i < b.N; i++ {
		r := daesim.NewRunner(flo)
		if _, _, err := daesim.EquivalentWindowRatio(r, daesim.Params{Window: 50, MD: 60}); err != nil {
			b.Fatal(err)
		}
		sims += r.Stats().Sims
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}
