package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposed series value in a Snapshot. Histograms flatten
// to their _bucket/_sum/_count samples exactly as the text exposition
// prints them, so parity tests and the writer see one shape.
type Sample struct {
	// Family is the registered metric name (without the _bucket/_sum/
	// _count suffix); Name is the exposed sample name (with it).
	Family string
	Name   string
	Kind   Kind
	Labels []Label
	Value  float64
}

// Snapshot returns every sample in deterministic order: families by
// name, series by label-value tuple, histogram samples bucket-ascending
// then _sum then _count. Func-backed series are read here.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out []Sample
	for _, f := range fams {
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ser := make([]*series, len(keys))
		for i, k := range keys {
			ser[i] = f.series[k]
		}
		r.mu.Unlock()
		for _, s := range ser {
			switch {
			case s.h != nil:
				cum := int64(0)
				for i, b := range s.h.bounds {
					cum += s.h.counts[i].Load()
					out = append(out, Sample{Family: f.name, Name: f.name + "_bucket", Kind: f.kind,
						Labels: append(append([]Label(nil), s.labels...), L("le", formatFloat(b))), Value: float64(cum)})
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				out = append(out, Sample{Family: f.name, Name: f.name + "_bucket", Kind: f.kind,
					Labels: append(append([]Label(nil), s.labels...), L("le", "+Inf")), Value: float64(cum)})
				out = append(out, Sample{Family: f.name, Name: f.name + "_sum", Kind: f.kind, Labels: s.labels, Value: s.h.Sum()})
				out = append(out, Sample{Family: f.name, Name: f.name + "_count", Kind: f.kind, Labels: s.labels, Value: float64(cum)})
			case s.fn != nil:
				out = append(out, Sample{Family: f.name, Name: f.name, Kind: f.kind, Labels: s.labels, Value: s.fn()})
			case s.c != nil:
				out = append(out, Sample{Family: f.name, Name: f.name, Kind: f.kind, Labels: s.labels, Value: float64(s.c.Value())})
			}
		}
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE per family, then each
// sample, in Snapshot's deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Snapshot()
	var b strings.Builder
	last := ""
	r.mu.Lock()
	helps := make(map[string]struct {
		help string
		kind Kind
	}, len(r.families))
	for name, f := range r.families {
		helps[name] = struct {
			help string
			kind Kind
		}{f.help, f.kind}
	}
	r.mu.Unlock()
	for _, s := range samples {
		if s.Family != last {
			meta := helps[s.Family]
			if meta.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Family, escapeHelp(meta.help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Family, meta.kind)
			last = s.Family
		}
		b.WriteString(s.Name)
		if len(s.Labels) > 0 {
			b.WriteByte('{')
			for i, l := range s.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(l.Name)
				b.WriteString(`="`)
				b.WriteString(escapeLabel(l.Value))
				b.WriteByte('"')
			}
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(formatFloat(s.Value))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value: integers without an exponent or
// trailing zeros (counters read naturally), everything else in Go's
// shortest round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
