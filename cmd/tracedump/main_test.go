package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"daesim/internal/machine"
	"daesim/internal/partition"
	"daesim/internal/trace"
	"daesim/internal/workloads"
)

func TestStatsAndPartitionAndReuse(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "MDG", "", "", "", 0, 1, true, true, true, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"trace MDG", "critical path", "partition classic", "self-loads", "reuse:", "fully associative"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestListDefault(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "TRFD", "", "", "", 5, 1, false, false, false, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "showing 5") {
		t.Fatalf("default listing missing:\n%s", b.String())
	}
}

func TestTextRoundTripAndDot(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "t.txt")
	dot := filepath.Join(dir, "t.dot")
	var b strings.Builder
	if err := run(&b, "QCD", "", text, dot, 10, 1, false, false, false, false); err != nil {
		t.Fatal(err)
	}
	// Ingest the text back and print stats.
	b.Reset()
	if err := run(&b, "", text, "", "", 0, 1, true, false, false, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "trace QCD") {
		t.Fatalf("round trip lost the trace:\n%s", b.String())
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Fatal("dot export malformed")
	}
}

// TestIngestRoundTrip closes the encode→decode→partition path end to
// end: dump a generated workload in the textual interchange format,
// re-ingest it through -ingest into a second text export, and require
// byte-identical exports and a re-lowered program that produces
// bit-identical Results on both machines — the property that makes
// externally recorded traces first-class inputs rather than
// approximations.
func TestIngestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "a.txt")
	again := filepath.Join(dir, "b.txt")
	const spec = "spec:depth=5,ilp=3,mem=0.8,addr=mixed,hazard=0.2,iters=24,seed=4"

	// Dump the generated workload as text, then ingest the text and
	// export it again — both through the command's own driver.
	var b strings.Builder
	if err := run(&b, spec, "", text, "", 0, 1, false, false, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, "", text, again, "", 0, 1, false, false, false, false); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(text)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-exporting an ingested trace changed its text")
	}

	orig, err := workloads.Build(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	ingested, err := trace.ReadText(bytes.NewReader(second), "unnamed")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, ingested) {
		t.Fatal("ingested trace differs structurally from the generated original")
	}

	// Re-lower both and compare Results bit for bit on both machines.
	so, err := machine.NewSuite(orig, partition.Policy(0))
	if err != nil {
		t.Fatal(err)
	}
	si, err := machine.NewSuite(ingested, partition.Policy(0))
	if err != nil {
		t.Fatal(err)
	}
	if so.Fingerprint() != si.Fingerprint() {
		t.Fatal("ingested suite fingerprint differs: the cache would treat the round trip as a new workload")
	}
	for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
		for _, p := range []machine.Params{{Window: 16, MD: 60}, {Window: 0, MD: 0}} {
			a, err := so.Run(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			c, err := si.Run(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, c) {
				t.Fatalf("%v %+v: ingested Results diverge:\n orig:     %+v\n ingested: %+v", kind, p, a, c)
			}
		}
	}
}

func TestIngestRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("int\nload ^7 @0x10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run(&b, "", bad, "", "", 0, 1, false, false, false, false)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed ingest error %v does not name the line", err)
	}
}

func TestNeedsInput(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "", "", "", "", 0, 1, true, false, false, false); err == nil {
		t.Fatal("missing input accepted")
	}
}
