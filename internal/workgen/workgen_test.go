package workgen

import (
	"bytes"
	"strings"
	"testing"

	"daesim/internal/isa"
	"daesim/internal/trace"
)

// traceBytes encodes tr in the textual trace format, the byte identity
// every determinism property below compares.
func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseFormatRoundTrip(t *testing.T) {
	specs := []Spec{
		Default(),
		{Depth: 1, ILP: 1, Mem: 0, Addr: Affine, Hazard: 0, Iters: 1, Seed: 0},
		{Depth: 64, ILP: 64, Mem: 0.25, Addr: Gather, Hazard: 1, Iters: 16, Seed: 1<<64 - 1},
		{Depth: 8, ILP: 4, Mem: 0.4, Addr: Chase, Hazard: 0.125, Iters: 640, Seed: 7},
		{Depth: 12, ILP: 2, Mem: 2.5, Addr: Mixed, Hazard: 0.0625, Iters: 100, Seed: 42},
	}
	for _, want := range specs {
		got, err := Parse(want.Format())
		if err != nil {
			t.Fatalf("Parse(%q): %v", want.Format(), err)
		}
		if got != want {
			t.Errorf("round trip changed the spec: %q -> %+v", want.Format(), got)
		}
	}
}

func TestParseDefaultsAndSpacing(t *testing.T) {
	got, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if got != Default() {
		t.Errorf("empty spec is not the default: %+v", got)
	}
	got, err = Parse(" depth=8 , addr=gather ,")
	if err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.Depth, want.Addr = 8, Gather
	if got != want {
		t.Errorf("partial spec = %+v, want %+v", got, want)
	}
}

// TestParseRejectsMalformed pins the field-naming contract: every
// rejection names the offending field or token.
func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct{ in, want string }{
		{"depth", `bad field "depth"`},
		{"width=4", `unknown field "width"`},
		{"depth=4,depth=8", `duplicate field "depth"`},
		{"depth=x", `bad depth "x"`},
		{"depth=0", "depth 0 out of range"},
		{"depth=65", "depth 65 out of range"},
		{"ilp=0", "ilp 0 out of range"},
		{"mem=-1", "mem -1 out of range"},
		{"mem=9", "mem 9 out of range"},
		{"mem=NaN", "mem NaN out of range"},
		{"addr=stride", `bad addr "stride"`},
		{"hazard=1.5", "hazard 1.5 out of range"},
		{"iters=0", "iters 0 out of range"},
		{"iters=1000000", "iters 1000000 out of range"},
		{"seed=-3", `bad seed "-3"`},
		{"depth=64,ilp=64,mem=4,iters=65536", "cap"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not name the problem (want %q)", c.in, err, c.want)
		}
	}
}

// TestGenerateDeterministic: same spec and seed, byte-identical trace —
// the identity the cache fingerprint and the fleet depend on.
func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Depth: 6, ILP: 3, Mem: 1.5, Addr: Mixed, Hazard: 0.2, Iters: 40, Seed: 9}
	a := traceBytes(t, spec.Generate(1))
	b := traceBytes(t, spec.Generate(1))
	if !bytes.Equal(a, b) {
		t.Fatal("same spec+seed produced different traces")
	}
}

// TestGenerateSeedsDistinct: distinct seeds must produce distinct
// traces, for every address shape (the seed drives address jitter even
// when it has no structural decisions to make).
func TestGenerateSeedsDistinct(t *testing.T) {
	for _, shape := range []Shape{Affine, Gather, Chase, Mixed} {
		spec := Spec{Depth: 4, ILP: 2, Mem: 1, Addr: shape, Hazard: 0.1, Iters: 20, Seed: 1}
		other := spec
		other.Seed = 2
		a := spec.Generate(1)
		bt := other.Generate(1)
		// Compare instruction streams, not encodings: the name embeds the
		// seed, so byte inequality alone would prove nothing.
		a.Name, bt.Name = "x", "x"
		if bytes.Equal(traceBytes(t, a), traceBytes(t, bt)) {
			t.Errorf("addr=%s: seeds 1 and 2 produced identical traces", shape)
		}
	}
}

// TestDepthMonotone: raising depth never lowers the critical-path
// length — the carried FP chain grows and no other path family loses
// edges (structural decisions are coordinate-hashed, not drawn
// sequentially).
func TestDepthMonotone(t *testing.T) {
	tm := isa.DefaultTiming(60)
	for _, shape := range []Shape{Affine, Gather, Chase, Mixed} {
		prev := int64(-1)
		for depth := 1; depth <= 16; depth++ {
			spec := Spec{Depth: depth, ILP: 4, Mem: 0.5, Addr: shape, Hazard: 0.25, Iters: 32, Seed: 5}
			cp := spec.Generate(1).CriticalPath(tm)
			if cp < prev {
				t.Errorf("addr=%s: critical path fell from %d to %d at depth %d", shape, prev, cp, depth)
			}
			prev = cp
		}
	}
}

// TestMemMonotone: raising mem never lowers ref density (memory refs
// per FP op).
func TestMemMonotone(t *testing.T) {
	for _, shape := range []Shape{Affine, Gather, Chase, Mixed} {
		prev := -1.0
		for m := 0; m <= 16; m++ {
			spec := Spec{Depth: 4, ILP: 4, Mem: float64(m) / 4, Addr: shape, Hazard: 0.1, Iters: 32, Seed: 5}
			st := spec.Generate(1).Stats()
			density := float64(st.MemRefs) / float64(st.ByClass[isa.FPALU])
			if density < prev {
				t.Errorf("addr=%s: ref density fell from %.3f to %.3f at mem=%.2f", shape, prev, density, spec.Mem)
			}
			prev = density
		}
	}
}

// TestHazardMonotone: raising hazard only ever adds DU→AU events (the
// draw is thresholded per coordinate), so the critical path never
// shortens.
func TestHazardMonotone(t *testing.T) {
	tm := isa.DefaultTiming(60)
	prev := int64(-1)
	for h := 0; h <= 10; h++ {
		spec := Spec{Depth: 4, ILP: 2, Mem: 1, Addr: Affine, Hazard: float64(h) / 10, Iters: 32, Seed: 5}
		cp := spec.Generate(1).CriticalPath(tm)
		if cp < prev {
			t.Errorf("critical path fell from %d to %d at hazard=%.1f", prev, cp, spec.Hazard)
		}
		prev = cp
	}
}

// TestGenerateScale: scale multiplies the per-lane step count.
// TestCheckScale: the size cap holds at every scale, not only at the
// scale 1 Validate checks. This spec passes Validate (its worst case is
// 3,859,200 instructions at scale 1) but is ~8x past the cap at scale 8;
// CheckScale answers from the knobs alone, emitting nothing.
func TestCheckScale(t *testing.T) {
	s, err := Parse("depth=64,ilp=64,mem=0,iters=900")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckScale(1); err != nil {
		t.Fatalf("scale 1: %v", err)
	}
	if err := s.CheckScale(8); err == nil || !strings.Contains(err.Error(), "~30873600 instructions at scale 8 (cap 4194304)") {
		t.Fatalf("scale 8: got %v, want the cap named", err)
	}
}

func TestGenerateScale(t *testing.T) {
	spec := Spec{Depth: 4, ILP: 2, Mem: 1, Addr: Affine, Hazard: 0, Iters: 16, Seed: 3}
	s1 := spec.Generate(1).Stats()
	s3 := spec.Generate(3).Stats()
	if s3.Total <= 2*s1.Total {
		t.Fatalf("scale 3 trace (%d instrs) not ~3x scale 1 (%d instrs)", s3.Total, s1.Total)
	}
}

// TestShapesShapeTheSlice: the addr knob actually changes the address
// slice — gathers load more (index loads), and chases put loaded values
// on integer address paths.
func TestShapesShapeTheSlice(t *testing.T) {
	base := Spec{Depth: 4, ILP: 2, Mem: 1, Hazard: 0, Iters: 32, Seed: 5}
	affine, gather := base, base
	affine.Addr, gather.Addr = Affine, Gather
	sa, sg := affine.Generate(1).Stats(), gather.Generate(1).Stats()
	if sg.ByClass[isa.Load] <= sa.ByClass[isa.Load] {
		t.Errorf("gather (%d loads) should out-load affine (%d)", sg.ByClass[isa.Load], sa.ByClass[isa.Load])
	}
	chase := base
	chase.Addr = Chase
	tr := chase.Generate(1)
	dependent := false
	for i := range tr.Len() {
		if tr.Class(i) != isa.IntALU {
			continue
		}
		for _, a := range tr.Args(i) {
			if tr.Class(int(a)) == isa.Load {
				dependent = true
			}
		}
	}
	if !dependent {
		t.Error("chase trace has no integer op consuming a loaded value")
	}
}
