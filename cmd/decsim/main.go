// Command decsim runs one simulation configuration and prints statistics.
//
// Usage:
//
//	decsim -workload FLO52Q -machine DM -window 64 -md 60 [-esw] [-scale 1]
//	       [-au-width 4] [-du-width 5] [-width 9] [-policy classic] [-queue 0]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/machine"
	"daesim/internal/metrics"
	"daesim/internal/partition"
	"daesim/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "FLO52Q", "workload name (TRFD ADM FLO52Q DYFESM QCD MDG TRACK, or spec:depth=...; see internal/workgen)")
		kind     = flag.String("machine", "DM", "machine model: DM or SWSM")
		window   = flag.Int("window", 64, "window size (0 = unlimited; per unit on the DM)")
		md       = flag.Int("md", 60, "memory differential in cycles")
		scale    = flag.Int("scale", 1, "workload scale factor")
		esw      = flag.Bool("esw", false, "collect effective-single-window statistics")
		auWidth  = flag.Int("au-width", 0, "AU issue width (default 4)")
		duWidth  = flag.Int("du-width", 0, "DU issue width (default 5)")
		width    = flag.Int("width", 0, "SWSM issue width (default 9)")
		policy   = flag.String("policy", "classic", "partition policy: classic, slice-only, balance")
		queue    = flag.Int("queue", 0, "memory queue capacity (0 = window-scaled default, -1 = unbounded)")
		hold     = flag.Bool("hold-sends", false, "sends hold window slots until fill returns (ablation A3)")
	)
	flag.Parse()

	if err := run(os.Stdout, *workload, *kind, *policy, machine.Params{
		Window: *window, MD: *md,
		AUWidth: *auWidth, DUWidth: *duWidth, Width: *width,
		MemQueue: *queue, CollectESW: *esw, HoldSendSlots: *hold,
	}, *scale); err != nil {
		fmt.Fprintf(os.Stderr, "decsim: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, workload, kindName, policyName string, p machine.Params, scale int) error {
	var pol partition.Policy
	if err := pol.UnmarshalText([]byte(policyName)); err != nil {
		return err
	}
	var kind machine.Kind
	if err := kind.UnmarshalText([]byte(strings.ToUpper(kindName))); err != nil {
		return err
	}
	tr, err := workloads.Build(workload, scale)
	if err != nil {
		return err
	}
	suite, err := machine.NewSuite(tr, pol)
	if err != nil {
		return err
	}
	res, err := suite.Run(kind, p)
	if err != nil {
		return err
	}

	st := tr.Stats()
	fmt.Fprintf(w, "workload   %s (scale %d): %v\n", workload, scale, st)
	fmt.Fprintf(w, "machine    %s  window=%d md=%d policy=%s\n", kind, p.Window, p.MD, pol)
	if kind == machine.DM {
		// A copy issues on the unit that holds the value.
		asg := suite.Assignment()
		fmt.Fprintf(w, "partition  AU ops=%d DU ops=%d self-loads=%d copies AU->DU=%d DU->AU=%d\n",
			asg.OpsAU, asg.OpsDU, asg.SelfLoads, res.Cores[isa.AU].IssuedByKind[isa.OpCopy], res.Cores[isa.DU].IssuedByKind[isa.OpCopy])
	}
	fmt.Fprintf(w, "cycles     %d\n", res.Cycles)
	fmt.Fprintf(w, "ipc        %.2f instructions/cycle (%.2f machine ops/cycle)\n", res.IPC(), res.OpsPerCycle())
	serial := machine.SerialCycles(tr, p.Timing())
	fmt.Fprintf(w, "speedup    %.1f over the serial reference (%d cycles)\n", metrics.Speedup(serial, res.Cycles), serial)
	perfect, err := suite.PerfectCycles(kind, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "LHE        %.3f (perfect %d cycles)\n", metrics.LHE(perfect, res.Cycles), perfect)
	for u, cs := range res.Cores {
		name := "core"
		if kind == machine.DM {
			name = isa.Unit(u).String()
		}
		fmt.Fprintf(w, "%-4s       issued=%d busy=%d%% avg-occ=%.1f max-occ=%d\n",
			name, cs.Issued, pct(cs.BusyCycles, res.Cycles), cs.AvgOcc(res.Cycles), cs.MaxOcc)
		fmt.Fprintf(w, "           by kind:%s\n", kindBreakdown(cs))
	}
	fmt.Fprintf(w, "memory     fills=%d max-in-flight=%d\n", res.Fills, res.MaxFillsInFlight)
	if p.CollectESW {
		fmt.Fprintf(w, "esw        max=%d avg=%.0f  slip max=%d avg=%.0f\n", res.MaxESW, res.AvgESW, res.MaxSlip, res.AvgSlip)
	}
	return nil
}

func pct(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

func kindBreakdown(cs engine.CoreStats) string {
	out := ""
	for k := 0; k < isa.NumOpKinds; k++ {
		if n := cs.IssuedByKind[k]; n > 0 {
			out += fmt.Sprintf(" %s=%d", isa.OpKind(k), n)
		}
	}
	return out
}
