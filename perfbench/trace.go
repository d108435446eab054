package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one pass share Pass;
// Parent is the span that caused this one (0 for a pass root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the pass code is the same
// with tracing on and off.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	pass  int // ID of the current pass root span (0 between passes)
	cur   int // ID of the current experiments-level span (parent for hook calls)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (or under the current experiments
// span when parent is -1) and returns its ID and the function that
// closes it.
func (t *tracer) begin(name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	if parent < 0 {
		parent = t.cur
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name, Start: t.now()})
	t.mu.Unlock()
	return id, func() {
		end := t.now()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// beginPass opens a pass root span; every span opened until the
// returned function runs carries its pass ID.
func (t *tracer) beginPass() func() {
	if t == nil {
		return func() {}
	}
	id, end := t.begin("pass", 0)
	t.mu.Lock()
	t.pass = id
	t.spans[id-1].Pass = id
	t.mu.Unlock()
	return func() {
		end()
		t.mu.Lock()
		t.pass, t.cur = 0, 0
		t.mu.Unlock()
	}
}

// beginExperiment opens an experiments-level span under the current
// pass and makes it the parent of the remote calls made until it ends.
func (t *tracer) beginExperiment(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	parent := t.pass
	t.mu.Unlock()
	id, end := t.begin(name, parent)
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
	return func() {
		end()
		t.mu.Lock()
		t.cur = 0
		t.mu.Unlock()
	}
}

// record adds a finished span whose parent is known by ID (server spans
// name their parent through a request header).
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	pass := 0
	if parent > 0 && parent <= len(t.spans) {
		pass = t.spans[parent-1].Pass
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Pass: pass, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanKey carries a remote call's span ID in its context, so the
// transport can name it as the parent of the server-side span.
type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// intervals is a sorted union of disjoint [start, end) ranges.
type intervals [][2]int64

func unionOf(spans []span) intervals {
	in := make(intervals, 0, len(spans))
	for _, s := range spans {
		if s.End > s.Start {
			in = append(in, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i][0] < in[j][0] })
	var out intervals
	for _, iv := range in {
		if n := len(out); n > 0 && iv[0] <= out[n-1][1] {
			if iv[1] > out[n-1][1] {
				out[n-1][1] = iv[1]
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func (a intervals) total() int64 {
	var n int64
	for _, iv := range a {
		n += iv[1] - iv[0]
	}
	return n
}

// overlap is the measure of a ∩ b.
func (a intervals) overlap(b intervals) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if hi > lo {
			n += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return n
}

// passLayers is one traced pass broken into layer self times, in
// nanoseconds: each experiments span kind minus the remote calls inside
// it, the remote calls minus the server handlers inside them, the
// server handlers, and the pass time no experiments span covers. The
// parts add up to the pass wall time.
type passLayers struct {
	wall   int64
	self   map[string]int64 // experiments.* self times
	dur    map[string]int64 // experiments.* union of their spans
	client int64            // daemon.call self time
	server int64            // daemon.server time
	other  int64
	count  map[string]int // experiments calls per kind, keyed as self
}

// layerBreakdown computes passLayers for every traced pass.
func (t *tracer) layerBreakdown() []passLayers {
	t.mu.Lock()
	defer t.mu.Unlock()
	byPass := map[int][]span{}
	var roots []span
	for _, s := range t.spans {
		if s.Name == "pass" {
			roots = append(roots, s)
		} else if s.Pass != 0 {
			byPass[s.Pass] = append(byPass[s.Pass], s)
		}
	}
	var out []passLayers
	for _, root := range roots {
		spans := byPass[root.ID]
		exps := map[string][]span{}
		var allExp, calls, servers []span
		for _, s := range spans {
			switch s.Name {
			case "daemon.call":
				calls = append(calls, s)
			case "daemon.server":
				servers = append(servers, s)
			default:
				exps[s.Name] = append(exps[s.Name], s)
				allExp = append(allExp, s)
			}
		}
		callU, serverU := unionOf(calls), unionOf(servers)
		pl := passLayers{wall: root.End - root.Start, self: map[string]int64{}, dur: map[string]int64{}, count: map[string]int{}}
		for name, ss := range exps {
			u := unionOf(ss)
			pl.dur[name] = u.total()
			pl.self[name] = u.total() - u.overlap(callU)
			pl.count[name] = len(ss)
		}
		pl.server = callU.overlap(serverU)
		pl.client = callU.total() - pl.server
		pl.other = pl.wall - unionOf(allExp).total()
		out = append(out, pl)
	}
	return out
}
