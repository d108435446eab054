package obsv

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("test_requests_total", "requests"); again != c {
		t.Fatal("second registration returned a different counter instance")
	}
	depth := 1.5
	r.GaugeFunc("test_depth", "depth", func() float64 { return depth })
	r.GaugeFunc("test_depth", "depth", func() float64 { return -1 }) // same series: the first fn stays
	if snap := r.Snapshot(); len(snap) != 2 || snap[0].Name != "test_depth" || snap[0].Value != 1.5 {
		t.Fatalf("snapshot = %+v, want test_depth 1.5 first", snap)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a := r.Counter("test_total", "t", L("endpoint", "run"))
	b := r.Counter("test_total", "t", L("endpoint", "sweep"))
	if a == b {
		t.Fatal("distinct label values returned the same series")
	}
	a.Inc()
	if got := r.Counter("test_total", "t", L("endpoint", "run")).Value(); got != 1 {
		t.Fatalf("labeled series = %d, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 0.005 + 0.01 + 0.05 + 0.5 + 5; math.Abs(h.Sum()-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	// Cumulative buckets: le=0.01 holds 2 (0.005 and the boundary 0.01),
	// le=0.1 holds 3, le=1 holds 4, +Inf holds all 5.
	var got []float64
	for _, s := range r.Snapshot() {
		if s.Name == "test_seconds_bucket" {
			got = append(got, s.Value)
		}
	}
	want := []float64{2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("bucket samples = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket samples = %v, want %v", got, want)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	t.Parallel()
	b := ExpBuckets(0.0001, 2, 4)
	want := []float64{0.0001, 0.0002, 0.0004, 0.0008}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-15 {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if len(LatencyBuckets) != 16 || LatencyBuckets[0] != 0.0001 {
		t.Fatalf("LatencyBuckets drifted: %v", LatencyBuckets)
	}
}

func TestFuncBackedMetrics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	v := 7.0
	r.CounterFunc("test_fn_total", "fn counter", func() float64 { return v })
	r.GaugeFunc("test_fn_depth", "fn gauge", func() float64 { return -v })
	snap := r.Snapshot()
	byName := map[string]float64{}
	for _, s := range snap {
		byName[s.Name] = s.Value
	}
	if byName["test_fn_total"] != 7 || byName["test_fn_depth"] != -7 {
		t.Fatalf("func metrics = %v", byName)
	}
	v = 9
	for _, s := range r.Snapshot() {
		if s.Name == "test_fn_total" && s.Value != 9 {
			t.Fatalf("func counter not re-read at snapshot: %v", s.Value)
		}
	}
}

// TestSnapshotDeterministicOrder pins the determinism contract: two
// snapshots of the same state are identical, families sort by name and
// series by label value, regardless of registration order.
func TestSnapshotDeterministicOrder(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("zz_total", "z").Inc()
	r.Counter("aa_total", "a", L("k", "v2")).Inc()
	r.Counter("aa_total", "a", L("k", "v1")).Inc()
	r.GaugeFunc("mm_depth", "m", func() float64 { return 1 })
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name+seriesKey(s.Labels))
	}
	for i := 1; i < len(names); i++ {
		if s1, s2 := snap[i-1], snap[i]; s1.Family > s2.Family {
			t.Fatalf("families out of order: %s before %s", s1.Family, s2.Family)
		}
	}
	if snap[0].Labels[0].Value != "v1" || snap[1].Labels[0].Value != "v2" {
		t.Fatalf("series not in label-value order: %+v", snap[:2])
	}
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of identical state differ")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("test_reqs_total", "requests served", L("endpoint", "run")).Add(3)
	r.GaugeFunc("test_depth", "queue depth", func() float64 { return 2 })
	h := r.Histogram("test_lat_seconds", "latency", []float64{0.5})
	h.Observe(0.25)
	h.Observe(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_depth queue depth
# TYPE test_depth gauge
test_depth 2
# HELP test_lat_seconds latency
# TYPE test_lat_seconds histogram
test_lat_seconds_bucket{le="0.5"} 1
test_lat_seconds_bucket{le="+Inf"} 2
test_lat_seconds_sum 2.25
test_lat_seconds_count 2
# HELP test_reqs_total requests served
# TYPE test_reqs_total counter
test_reqs_total{endpoint="run"} 3
`
	if b.String() != want {
		t.Fatalf("exposition text:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("test_esc_total", "", L("path", `a\b"c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\\b\"c\n"`) {
		t.Fatalf("label value not escaped: %s", b.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("test_total", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.GaugeFunc("test_total", "t", func() float64 { return 0 })
}

func TestBadNamePanics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("a metric name with a dash should panic")
		}
	}()
	r.Counter("bad-name", "")
}

func TestConcurrentUse(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_conc_total", "")
	h := r.Histogram("test_conc_seconds", "", LatencyBuckets)
	var depth atomic.Int64
	r.GaugeFunc("test_conc_depth", "", func() float64 { return float64(depth.Load()) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				depth.Add(1)
				h.Observe(0.001)
				r.Counter("test_conc_total", "").Inc()
				if i%100 == 0 {
					r.Snapshot() // reads the gauge while others write
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("counter = %d, want 16000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	for _, s := range r.Snapshot() {
		if s.Name == "test_conc_depth" && s.Value != 8000 {
			t.Fatalf("gauge = %v, want 8000", s.Value)
		}
	}
}
