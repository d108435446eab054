package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"daesim/internal/experiments"
)

// passRun is one pass's bookkeeping: the digest of every artifact it
// rendered, the latency of each remote call it made, and its spans (tr
// is nil in untraced passes).
type passRun struct {
	tr      *tracer
	digests map[string]string

	// probes reports the running total of simulations plus L1 hits of
	// the runners that execute equivalent-window searches (local on the
	// paper workloads, server-side on the fleet).
	probes       func() int64
	ratioProbes  int64
	ratioAnswers int

	mu       sync.Mutex
	lat      []time.Duration
	calls    int
	callErrs int
}

func newPassRun(tr *tracer, probes func() int64) *passRun {
	return &passRun{tr: tr, digests: map[string]string{}, probes: probes}
}

// artifact is one rendered output file of an experiment.
type artifact struct {
	file   string
	render func(io.Writer) error
}

func one[T interface{ Render(io.Writer) error }](file string, get func() (T, error)) func() ([]artifact, error) {
	return func() ([]artifact, error) {
		res, err := get()
		if err != nil {
			return nil, err
		}
		return []artifact{{file, res.Render}}, nil
	}
}

// step runs one experiment call under an experiments span, then renders
// its artifacts straight into SHA-256 digests under the render span.
func (p *passRun) step(spanName string, call func() ([]artifact, error)) error {
	end := p.tr.beginExperiment(spanName)
	arts, err := call()
	end()
	if err != nil {
		return fmt.Errorf("%s: %w", spanName, err)
	}
	end = p.tr.beginExperiment("experiments.render")
	defer end()
	for _, a := range arts {
		h := sha256.New()
		if err := a.render(h); err != nil {
			return fmt.Errorf("rendering %s: %w", a.file, err)
		}
		p.digests[a.file] = hex.EncodeToString(h.Sum(nil))
	}
	return nil
}

// ratioStep is step for one Figure 7-9 style curve set, also counting
// the search probes it cost and the ratio answers it produced.
func (p *passRun) ratioStep(ctx *experiments.Context, num int, name string) error {
	before := p.probes()
	err := p.step("experiments.ratio_figs", func() ([]artifact, error) {
		r, err := ctx.RatioFigureNamed(num, name)
		if err != nil {
			return nil, err
		}
		base := fmt.Sprintf("figure%d_%s", num, name)
		return []artifact{{base + ".txt", r.Render}, {base + ".dat", r.Dat}}, nil
	})
	p.ratioProbes += p.probes() - before
	p.ratioAnswers += len(experiments.RatioMDs) * len(experiments.RatioWindows)
	return err
}

func (p *passRun) figureStep(ctx *experiments.Context, num int, name string) error {
	return p.step("experiments.figs", func() ([]artifact, error) {
		f, err := ctx.FigureNamed(num, name)
		if err != nil {
			return nil, err
		}
		base := fmt.Sprintf("figure%d_%s", num, name)
		return []artifact{{base + ".txt", f.Render}, {base + ".dat", f.Dat}}, nil
	})
}

// paperNumbers are the paper's figure numbers per workload.
var paperNumbers = []struct {
	name       string
	fig, ratio int
}{{"FLO52Q", 4, 7}, {"MDG", 5, 8}, {"TRACK", 6, 9}}

// corpusPass regenerates the whole repro -exp all corpus (16 artifacts
// in 22 files) on ctx, in experiments.Context.WriteAll's order, so the
// caches see the same sequence of points a user's run does.
func corpusPass(ctx *experiments.Context, p *passRun) error {
	if err := p.step("experiments.table1", one("table1.txt", ctx.Table1)); err != nil {
		return err
	}
	for _, w := range paperNumbers {
		if err := p.figureStep(ctx, w.fig, w.name); err != nil {
			return err
		}
		if err := p.ratioStep(ctx, w.ratio, w.name); err != nil {
			return err
		}
	}
	ablations := func() ([]artifact, error) {
		as, err := ctx.Ablations()
		if err != nil {
			return nil, err
		}
		return []artifact{{"ablations.txt", func(w io.Writer) error {
			for _, a := range as {
				if err := a.Render(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		}}}, nil
	}
	studies := []func() ([]artifact, error){
		one("cutoffs.txt", ctx.Cutoffs),
		one("bigwindow.txt", ctx.BigWindow),
		one("esw.txt", ctx.ESWStudy),
		ablations,
		one("expansion.txt", ctx.CodeExpansion),
		one("policies.txt", ctx.PolicyStudy),
		one("retire.txt", ctx.RetireStudy),
		one("cache.txt", ctx.CacheStudy),
		one("complexity.txt", ctx.ComplexityStudy),
	}
	for _, call := range studies {
		if err := p.step("experiments.studies", call); err != nil {
			return err
		}
	}
	return nil
}

// fleetPass computes Figures 4-9 plus the seed's generated workloads'
// Figure 4 and 7 curves on ctx.
func fleetPass(ctx *experiments.Context, p *passRun, specs []string) error {
	figs := []struct {
		num  int
		name string
	}{{4, "FLO52Q"}, {4, specs[0]}, {4, specs[1]}, {5, "MDG"}, {6, "TRACK"}}
	for _, f := range figs {
		if err := p.figureStep(ctx, f.num, f.name); err != nil {
			return err
		}
	}
	ratios := []struct {
		num  int
		name string
	}{{7, "FLO52Q"}, {7, specs[0]}, {7, specs[1]}, {8, "MDG"}, {9, "TRACK"}}
	for _, r := range ratios {
		if err := p.ratioStep(ctx, r.num, r.name); err != nil {
			return err
		}
	}
	return nil
}

// remote times one remote call made through an experiments hook: the
// client-observed request latency, a daemon.call span, and the span ID
// in the call's context for the server side to name as parent.
func (p *passRun) remote(call func(context.Context) error) error {
	id, end := p.tr.begin("daemon.call", -1)
	ctx := context.Background()
	if p.tr != nil {
		ctx = withSpan(ctx, id)
	}
	t0 := time.Now()
	err := call(ctx)
	d := time.Since(t0)
	end()
	p.mu.Lock()
	p.lat = append(p.lat, d)
	p.calls++
	if err != nil {
		p.callErrs++
	}
	p.mu.Unlock()
	return err
}

// diffDigests describes how got differs from want (empty when equal).
func diffDigests(want, got map[string]string) string {
	var bad []string
	for f, d := range want {
		if got[f] != d {
			bad = append(bad, f)
		}
	}
	for f := range got {
		if _, ok := want[f]; !ok {
			bad = append(bad, f+" (unexpected)")
		}
	}
	if len(bad) == 0 {
		return ""
	}
	sort.Strings(bad)
	return strings.Join(bad, ", ")
}

// hashDir digests every file in dir, keyed by file name (the artifacts
// experiments.Context.WriteAll wrote).
func hashDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out, nil
}
