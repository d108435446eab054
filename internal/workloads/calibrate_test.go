package workloads

// Calibration harness: not a test of correctness but of fidelity to the
// paper. Run with -run Calibrate -v to print the key observables for all
// seven programs. The assertions live in internal/experiments tests; this
// file exists so calibration is one command during development.

import (
	"testing"

	"daesim/internal/isa"
	"daesim/internal/machine"
	"daesim/internal/metrics"
	"daesim/internal/partition"
	"daesim/internal/sweep"
)

func TestCalibrateReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report is long")
	}
	for _, spec := range Catalog() {
		tr := spec.Build(1)
		st := tr.Stats()
		suite, err := machine.NewSuite(tr, partition.Classic)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// LHE at unlimited window, MD=60.
		unlimited := machine.Params{Window: 0, MD: 60}
		perfect, err := suite.PerfectCycles(machine.DM, unlimited)
		if err != nil {
			t.Fatal(err)
		}
		actual, err := suite.RunDM(unlimited)
		if err != nil {
			t.Fatal(err)
		}
		lheInf := metrics.LHE(perfect, actual.Cycles)

		t.Logf("%-7s band=%-10s %v copies(AU->DU %d, DU->AU %d) selfloads=%d",
			spec.Name, spec.Band, st,
			actual.Cores[isa.AU].IssuedByKind[isa.OpCopy], actual.Cores[isa.DU].IssuedByKind[isa.OpCopy], suite.Assignment().SelfLoads)
		t.Logf("  LHE(inf,md60)=%.3f  (perfect=%d actual=%d)", lheInf, perfect, actual.Cycles)

		for _, md := range []int{0, 60} {
			serial := machine.SerialCycles(tr, machine.Params{MD: md}.Timing())
			line := "  md=" + itoa(md) + " speedup:"
			for _, w := range []int{8, 16, 32, 64, 100, 256, 1000} {
				p := machine.Params{Window: w, MD: md}
				dm, err := suite.RunDM(p)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := suite.RunSWSM(p)
				if err != nil {
					t.Fatal(err)
				}
				line += "  w" + itoa(w) + " DM=" + f1(metrics.Speedup(serial, dm.Cycles)) +
					"/SW=" + f1(metrics.Speedup(serial, sw.Cycles))
			}
			t.Log(line)
		}
		// LHE vs window at MD=60 (Table 1 shape).
		line := "  LHE(md60):"
		for _, w := range []int{8, 16, 32, 64, 128, 0} {
			p := machine.Params{Window: w, MD: 60}
			perfect, err := suite.PerfectCycles(machine.DM, p)
			if err != nil {
				t.Fatal(err)
			}
			act, err := suite.RunDM(p)
			if err != nil {
				t.Fatal(err)
			}
			line += "  w" + itoa(w) + "=" + f2(metrics.LHE(perfect, act.Cycles))
		}
		t.Log(line)
		// Equivalent window ratio at md=60 for a few DM windows.
		line = "  EWR(md60):"
		runner := sweep.NewRunner(suite)
		for _, w := range []int{10, 30, 64, 100} {
			r, ok, err := metrics.EquivalentWindowRatio(runner, machine.Params{Window: w, MD: 60})
			if err != nil {
				t.Fatal(err)
			}
			line += "  w" + itoa(w) + "=" + f2(r)
			if !ok {
				line += "+"
			}
		}
		t.Log(line)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func f1(v float64) string { return fmtFloat(v, 10) }
func f2(v float64) string { return fmtFloat(v, 100) }

func fmtFloat(v float64, scale int) string {
	scaled := int(v*float64(scale) + 0.5)
	whole := scaled / scale
	frac := scaled % scale
	if scale == 10 {
		return itoa(whole) + "." + itoa(frac)
	}
	fs := itoa(frac)
	if frac < 10 {
		fs = "0" + fs
	}
	return itoa(whole) + "." + fs
}
