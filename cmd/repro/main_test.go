package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// TestUsageEnumeratesExperiments keeps the doc comment's usage line and
// the -exp flag help in step with the experiments registry: any
// experiment run() can dispatch must be discoverable from both
// user-facing strings.
func TestUsageEnumeratesExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	// Extract only the -exp enumeration of the doc comment (the
	// "//	repro ..." block after "Usage:") and split them into words,
	// so a name like "cache" or "all" must appear in the -exp
	// enumeration itself — a stray "-cache dir" or "always" elsewhere
	// in the comment cannot mask an omission.
	doc := string(src[:strings.Index(string(src), "package main")])
	if !strings.Contains(doc, "Usage:") {
		t.Fatal("main.go doc comment lost its Usage block")
	}
	usageWords := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "//\t") {
			continue
		}
		// Only the -exp enumeration counts: the "-cache dir" flag on a
		// usage line must not be able to mask an omitted "cache".
		i := strings.Index(line, "-exp ")
		if i < 0 {
			continue
		}
		for _, w := range strings.FieldsFunc(line[i+len("-exp "):], func(r rune) bool {
			return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
		}) {
			usageWords[w] = true
		}
	}
	if len(usageWords) == 0 {
		t.Fatal("main.go usage block lost its -exp enumeration line")
	}
	helpWords := map[string]bool{}
	for _, w := range strings.FieldsFunc(expFlagHelp(), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	}) {
		helpWords[w] = true
	}
	for _, name := range append([]string{"all"}, experimentNames()...) {
		if !usageWords[name] {
			t.Errorf("doc comment usage line omits experiment %q", name)
		}
		if !helpWords[name] {
			t.Errorf("-exp flag help omits experiment %q", name)
		}
	}
}

// TestCacheGCSummary pins the -cache-gc stderr line: scripts (and the
// CI smoke job) grep it, so format drift is a breaking change.
func TestCacheGCSummary(t *testing.T) {
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		store.Put(fmt.Sprintf("k%d", i), &engine.Result{Cycles: int64(i)})
	}
	// All three entries marshal to the same number of bytes (single-digit
	// cycle counts), so the summary's byte totals are exact multiples.
	n, total := store.Usage()
	if n != 3 || total%3 != 0 {
		t.Fatalf("want 3 equal-size store entries, got %d in %d B", n, total)
	}
	size := total / 3

	pol, err := sweep.ParseGCPolicy("max-entries=1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runCacheGC(store, pol, &buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("repro: cache-gc (max-entries=1): scanned 3 entries, evicted 2 (%d B), kept 1 (%d B)\n", 2*size, size)
	if buf.String() != want {
		t.Fatalf("summary drifted:\ngot  %q\nwant %q", buf.String(), want)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries after GC, want 1", store.Len())
	}
}

// TestCPUProfile: -cpuprofile writes a profile and leaves the rendered
// output byte-identical.
func TestCPUProfile(t *testing.T) {
	table1, _ := experiments.Lookup("table1")
	render := func() []byte {
		arts, err := table1.Run(experiments.NewContext(), "")
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := arts[0].Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	want := render()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := render()
	stop()
	if !bytes.Equal(got, want) {
		t.Fatal("profiling changed the output")
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Fatalf("no profile written: %v", err)
	}
}

// TestExperimentsPrintWhatTheyWrite: for every registry row, repro -exp
// prints exactly the bytes -exp all writes to the row's first file.
func TestExperimentsPrintWhatTheyWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole corpus")
	}
	ctx := experiments.NewContext()
	dir := t.TempDir()
	if _, err := ctx.WriteAll(dir, nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.Experiments {
		arts, err := e.Run(ctx, e.Workload)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want, err := os.ReadFile(filepath.Join(dir, arts[0].File))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(ctx, e.Name, t.TempDir(), "", &got); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("repro -exp %s printed %d bytes that differ from the %d of %s", e.Name, got.Len(), len(want), arts[0].File)
		}
	}
}

func TestSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration is slow")
	}
	ctx := experiments.NewContext()
	// Stdout-printing paths for a representative subset (shared context
	// caches the workload suites across them).
	for _, exp := range []string{"table1", "fig6", "cutoffs", "esw", "expansion", "cache"} {
		if err := run(ctx, exp, t.TempDir(), "", io.Discard); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
	if err := run(ctx, "not-an-experiment", t.TempDir(), "", io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestWorkloadOverride covers -workload: a generated workload sweeps
// through a figure experiment, non-figure experiments refuse the flag,
// and a bad spec fails before any simulation starts.
func TestWorkloadOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration is slow")
	}
	ctx := experiments.NewContext()
	if err := run(ctx, "fig4", t.TempDir(), "spec:depth=3,ilp=2,iters=16", io.Discard); err != nil {
		t.Errorf("fig4 with a generated workload: %v", err)
	}
	if err := run(ctx, "table1", t.TempDir(), "spec:depth=3", io.Discard); err == nil {
		t.Error("-workload accepted for a non-figure experiment")
	}
	err := run(ctx, "fig4", t.TempDir(), "spec:depth=999", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("bad spec error %v does not name the field", err)
	}
	err = run(ctx, "fig4", t.TempDir(), "NOSUCH", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "TRFD") {
		t.Errorf("unknown workload error %v does not enumerate the registry", err)
	}
}

// TestListOrderParity pins satellite agreement across every user-facing
// enumeration of the workload registry: repro -list, the
// workloads.Lookup unknown-name error, and (transitively, because the
// daemon's /v1/run validation error wraps that same Lookup error —
// daemon_test.go's TestUnknownWorkloadErrorEnumeratesRegistry holds the
// other end) the fleet's 400 bodies all list the same names in the same
// order.
func TestListOrderParity(t *testing.T) {
	var buf bytes.Buffer
	listWorkloads(&buf)
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		listed = append(listed, strings.TrimSpace(line))
	}
	if !reflect.DeepEqual(listed, workloads.Names()) {
		t.Fatalf("repro -list order %v != registry order %v", listed, workloads.Names())
	}
	_, err := workloads.Lookup("NOSUCH")
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	want := fmt.Sprintf("%v", workloads.Names())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Lookup error %q does not enumerate the registry in order (want substring %q)", err, want)
	}
}
