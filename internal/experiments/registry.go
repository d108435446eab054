package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// An Artifact is one file an experiment writes: its name in the output
// directory and the renderer that produces its bytes.
type Artifact struct {
	File   string
	Render func(io.Writer) error
}

// An Experiment is one repro -exp value: a driver run once, and the
// files its result renders to.
type Experiment struct {
	Name string // the -exp value
	// Figure and Workload are set for the paper's figures only: the
	// figure number and the paper workload it plots, which repro
	// -workload may replace.
	Figure   int
	Workload string
	// Run runs the driver on c for workload (ignored outside the
	// figures) and returns the files in write order.
	Run   func(c *Context, workload string) ([]Artifact, error)
	ratio bool // an equivalent-window ratio figure (7-9), not a speedup one
}

// Experiments is the registry of every artifact of repro -exp all, in
// the order WriteAll writes them. cmd/repro dispatches -exp from it.
var Experiments = []Experiment{
	study("table1", (*Context).Table1),
	figure(4, "FLO52Q", false, (*Context).FigureNamed),
	figure(7, "FLO52Q", true, (*Context).RatioFigureNamed),
	figure(5, "MDG", false, (*Context).FigureNamed),
	figure(8, "MDG", true, (*Context).RatioFigureNamed),
	figure(6, "TRACK", false, (*Context).FigureNamed),
	figure(9, "TRACK", true, (*Context).RatioFigureNamed),
	study("cutoffs", (*Context).Cutoffs),
	study("bigwindow", (*Context).BigWindow),
	study("esw", (*Context).ESWStudy),
	study("ablations", func(c *Context) (ablationSet, error) { return c.Ablations() }),
	study("expansion", (*Context).CodeExpansion),
	study("policies", (*Context).PolicyStudy),
	study("retire", (*Context).RetireStudy),
	study("cache", (*Context).CacheStudy),
	study("complexity", (*Context).ComplexityStudy),
}

// study is the row of an experiment that writes one file, <name>.txt.
func study[T interface{ Render(io.Writer) error }](name string, get func(*Context) (T, error)) Experiment {
	return Experiment{Name: name, Run: func(c *Context, _ string) ([]Artifact, error) {
		res, err := get(c)
		if err != nil {
			return nil, err
		}
		return []Artifact{{name + ".txt", res.Render}}, nil
	}}
}

// figure is the row of paper figure num: a chart and its gnuplot data.
func figure[T interface {
	Render(io.Writer) error
	Dat(io.Writer) error
}](num int, workload string, ratio bool, draw func(c *Context, num int, workload string) (T, error)) Experiment {
	return Experiment{
		Name: fmt.Sprintf("fig%d", num), Figure: num, Workload: workload, ratio: ratio,
		Run: func(c *Context, workload string) ([]Artifact, error) {
			res, err := draw(c, num, workload)
			if err != nil {
				return nil, err
			}
			base := fmt.Sprintf("figure%d_%s", num, workload)
			return []Artifact{{base + ".txt", res.Render}, {base + ".dat", res.Dat}}, nil
		},
	}
}

// Lookup returns the registry row named name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// paperFigure returns the number of the paper's speedup (ratio false) or
// equivalent-window ratio (ratio true) figure of workload.
func paperFigure(workload string, ratio bool) (int, bool) {
	for _, e := range Experiments {
		if e.Figure > 0 && e.Workload == workload && e.ratio == ratio {
			return e.Figure, true
		}
	}
	return 0, false
}

// WriteAll regenerates every artifact into dir, in registry order,
// returning the files written. It is the engine behind cmd/repro.
func (c *Context) WriteAll(dir string, log io.Writer) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for _, e := range Experiments {
		arts, err := e.Run(c, e.Workload)
		if err != nil {
			return nil, err
		}
		for _, a := range arts {
			var buf bytes.Buffer
			if err := a.Render(&buf); err != nil {
				return nil, err
			}
			path := filepath.Join(dir, a.File)
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				return nil, err
			}
			files = append(files, path)
			if log != nil {
				fmt.Fprintf(log, "wrote %s\n", path)
			}
		}
	}
	return files, nil
}
