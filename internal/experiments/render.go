package experiments

import (
	"fmt"
	"io"

	"daesim/internal/metrics"
	"daesim/internal/plot"
	"daesim/internal/sweep"
)

func toPlotSeries(in []sweep.Series) []plot.Series {
	out := make([]plot.Series, len(in))
	for i, s := range in {
		out[i] = plot.Series{Name: s.Name, X: s.X, Y: s.Y}
	}
	return out
}

// Render writes Table 1 as an aligned text table.
func (t *Table1Result) Render(w io.Writer) error {
	header := []string{"Prog", "band"}
	for _, win := range t.Windows {
		header = append(header, fmt.Sprintf("w=%d", win))
	}
	header = append(header, "unlimited")
	rows := [][]string{header}
	for _, row := range t.Rows {
		cells := []string{row.Name, row.Band.String()}
		for _, v := range row.LHE {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		cells = append(cells, fmt.Sprintf("%.2f", row.Unlimited))
		rows = append(rows, cells)
	}
	tbl := plot.Table{
		Title: fmt.Sprintf("Table 1: DM latency hiding effectiveness, MD=%d cycles", t.MD),
		Rows:  rows,
	}
	return tbl.Render(w)
}

// Render writes the figure as an ASCII chart.
func (f *FigureResult) Render(w io.Writer) error {
	ch := plot.Chart{
		Title:  fmt.Sprintf("Figure %d: %s (CIW=9)", f.Number, f.Workload),
		XLabel: "Window Size",
		YLabel: "Speedup",
		Series: toPlotSeries(f.Series),
	}
	return ch.Render(w)
}

// Dat writes the figure's data in gnuplot format.
func (f *FigureResult) Dat(w io.Writer) error {
	return plot.WriteDat(w, fmt.Sprintf("figure %d: speedup vs window, %s", f.Number, f.Workload), toPlotSeries(f.Series))
}

// Render writes the ratio figure as an ASCII chart.
func (f *RatioResult) Render(w io.Writer) error {
	ch := plot.Chart{
		Title:  fmt.Sprintf("Figure %d: %s", f.Number, f.Workload),
		XLabel: "Access Decoupled Window Size",
		YLabel: "Equivalent window ratio",
		Series: toPlotSeries(f.Series),
	}
	if err := ch.Render(w); err != nil {
		return err
	}
	for _, md := range RatioMDs {
		if sat := f.Saturated[md]; len(sat) > 0 {
			fmt.Fprintf(w, "  (md=%d: no equivalent SWSM window within %d slots at DM windows %v)\n", md, satCap(), sat)
		}
	}
	return nil
}

func satCap() int { return metrics.MaxEquivalentWindow }

// Dat writes the ratio figure's data in gnuplot format.
func (f *RatioResult) Dat(w io.Writer) error {
	return plot.WriteDat(w, fmt.Sprintf("figure %d: equivalent window ratio, %s", f.Number, f.Workload), toPlotSeries(f.Series))
}

// Render writes the cutoff study as a table.
func (c *CutoffResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "cutoff window (SWSM >= DM at MD=0)"}}
	for _, r := range c.Rows {
		v := "none in sweep"
		if r.Found {
			v = fmt.Sprintf("%d", r.Window)
		}
		rows = append(rows, []string{r.Name, v})
	}
	tbl := plot.Table{Title: "C1: MD=0 cutoff windows", Rows: rows}
	return tbl.Render(w)
}

// Render writes the big-window study as a table.
func (b *BigWindowResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "window", "DM cycles", "SWSM cycles", "DM/SWSM"}}
	for _, r := range b.Rows {
		rows = append(rows, []string{
			r.Name, fmt.Sprintf("%d", r.Window),
			fmt.Sprintf("%d", r.DMCycles), fmt.Sprintf("%d", r.SWCycles),
			fmt.Sprintf("%.3f", float64(r.DMCycles)/float64(r.SWCycles)),
		})
	}
	tbl := plot.Table{Title: fmt.Sprintf("C2: large windows, MD=%d", b.MD), Rows: rows}
	return tbl.Render(w)
}

// Render writes the ESW study as a table.
func (e *ESWResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "window", "MD", "max ESW", "avg ESW", "max slip", "avg slip"}}
	for _, r := range e.Rows {
		rows = append(rows, []string{
			r.Name, fmt.Sprintf("%d", r.Window), fmt.Sprintf("%d", r.MD),
			fmt.Sprintf("%d", r.MaxESW), fmt.Sprintf("%.0f", r.AvgESW),
			fmt.Sprintf("%d", r.MaxSlip), fmt.Sprintf("%.0f", r.AvgSlip),
		})
	}
	tbl := plot.Table{Title: "C3: effective single window and slippage (DM)", Rows: rows}
	return tbl.Render(w)
}

// Render writes an ablation study as a table.
func (a *AblationResult) Render(w io.Writer) error {
	rows := [][]string{{"Workload", "config", "cycles"}}
	for _, p := range a.Points {
		rows = append(rows, []string{p.Workload, p.Label, fmt.Sprintf("%d", p.Cycles)})
	}
	tbl := plot.Table{Title: fmt.Sprintf("%s: %s", a.ID, a.Description), Rows: rows}
	return tbl.Render(w)
}

// ablationSet is the ablations file: every study, each followed by a
// blank line.
type ablationSet []*AblationResult

// Render writes every ablation study.
func (s ablationSet) Render(w io.Writer) error {
	for _, a := range s {
		if err := a.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
