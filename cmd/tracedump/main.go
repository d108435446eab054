// Command tracedump inspects workload traces: statistics, partition
// summaries, listings, and text export and ingestion of address traces.
//
// Usage:
//
//	tracedump -workload MDG [-n 40] [-stats] [-partition] [-text trace.txt]
//	tracedump -workload spec:depth=8,ilp=4,addr=gather -stats
//	tracedump -ingest recorded.txt -stats
//
// -text writes the textual interchange format (see internal/trace
// ReadText): one instruction per line with ^N backward operand
// references and @ADDR memory addresses. -ingest reads it back, or an
// externally recorded trace, and validates it; every inspection and
// export then applies to the ingested trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"daesim/internal/isa"
	"daesim/internal/partition"
	"daesim/internal/trace"
	"daesim/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to build (TRFD ADM FLO52Q DYFESM QCD MDG TRACK, or spec:depth=...)")
		ingest   = flag.String("ingest", "", "read a textual address trace (see internal/trace ReadText) instead of building a workload")
		text     = flag.String("text", "", "write the trace in the textual interchange format (what -ingest reads) to this file")
		n        = flag.Int("n", 20, "instructions to list (0 = all)")
		stats    = flag.Bool("stats", false, "print composition statistics")
		part     = flag.Bool("partition", false, "print AU/DU partition summary")
		reuse    = flag.Bool("reuse", false, "print line-grain reuse profile")
		dot      = flag.String("dot", "", "write the dependence graph (first -n instructions) as Graphviz to this file")
		scale    = flag.Int("scale", 1, "workload scale factor")
		list     = flag.Bool("list", false, "list instructions")
	)
	flag.Parse()
	if err := run(os.Stdout, *workload, *ingest, *text, *dot, *n, *scale, *stats, *part, *reuse, *list); err != nil {
		fmt.Fprintf(os.Stderr, "tracedump: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, workload, ingest, text, dot string, n, scale int, stats, part, reuse, list bool) error {
	var tr *trace.Trace
	switch {
	case ingest != "":
		f, err := os.Open(ingest)
		if err != nil {
			return err
		}
		defer f.Close()
		// The file may name itself with a "# trace NAME" directive; the
		// base name is the fallback identity.
		tr, err = trace.ReadText(f, "ingest:"+filepath.Base(ingest))
		if err != nil {
			return err
		}
	case workload != "":
		var err error
		tr, err = workloads.Build(workload, scale)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -workload or -ingest (known workloads: %v)", workloads.Names())
	}

	if stats {
		st := tr.Stats()
		fmt.Fprintf(w, "trace %s: %v\n", tr.Name, st)
		fmt.Fprintf(w, "critical path: %d cycles at md=0, %d at md=60; mean ILP %.1f\n",
			tr.CriticalPath(isa.DefaultTiming(0)), tr.CriticalPath(isa.DefaultTiming(60)), tr.MeanILP())
	}
	if reuse {
		p := tr.Reuse()
		fmt.Fprintf(w, "reuse: %d refs over %d lines; median stack distance %d\n", p.Refs, p.Lines, p.MedianDistance())
		for _, c := range []int{16, 64, 256, 1024} {
			fmt.Fprintf(w, "  fully associative %4d lines would hit %5.1f%%\n", c, 100*p.HitRate(c))
		}
	}
	if dot != "" {
		f, err := os.Create(dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.WriteDot(f, n); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", dot)
	}
	if part {
		for _, pol := range partition.Policies() {
			a, err := partition.Partition(tr, pol)
			if err != nil {
				return err
			}
			s := a.Stats()
			fmt.Fprintf(w, "partition %-10s AU=%d DU=%d slice=%d self-loads=%d\n",
				pol, s.AUOps, s.DUOps, s.SliceSize, s.SelfLoads)
		}
	}
	if text != "" {
		f, err := os.Create(text)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteText(f, tr); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d instructions)\n", text, tr.Len())
	}
	if list || (!stats && !part && !reuse && text == "" && dot == "") {
		return trace.Dump(w, tr, n)
	}
	return nil
}
