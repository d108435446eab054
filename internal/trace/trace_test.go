package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"daesim/internal/isa"
)

// mustTrace builds a trace from authored instructions that must be valid.
func mustTrace(name string, instrs []Instr) *Trace {
	tr, err := New(name, instrs...)
	if err != nil {
		panic(err)
	}
	return tr
}

// sameTrace reports whether a and b hold the same name and slabs.
func sameTrace(a, b *Trace) bool {
	return a.Name == b.Name && slices.Equal(a.class, b.class) && slices.Equal(a.memAddr, b.memAddr) &&
		slices.Equal(a.off, b.off) && slices.Equal(a.ops, b.ops)
}

// chainTrace builds: int; load(addr=int); fp(load); store(fp, addr=int).
func chainTrace() *Trace {
	return mustTrace("chain", []Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x100},
		{Class: isa.FPALU, Args: []int32{1}},
		{Class: isa.Store, Addr: []int32{0}, Args: []int32{2}, MemAddr: 0x200},
	})
}

func TestValidateAcceptsChain(t *testing.T) {
	if err := chainTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

// TestValidateRejections: every malformed trace New is handed is refused
// naming its fault, whether the slabs could hold it (checked by
// Validate) or not (an operand split that does not fit the class).
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		instrs []Instr
		want   string
	}{
		{"bad class", []Instr{{Class: isa.Class(99)}}, "invalid class"},
		{"forward ref", []Instr{{Class: isa.IntALU, Args: []int32{0}}}, "strictly backwards"},
		{"future ref", []Instr{{Class: isa.IntALU}, {Class: isa.IntALU, Args: []int32{5}}}, "strictly backwards"},
		{"none operand", []Instr{{Class: isa.IntALU}, {Class: isa.FPALU, Args: []int32{None}}}, "strictly backwards"},
		{"addr on alu", []Instr{{Class: isa.IntALU}, {Class: isa.FPALU, Addr: []int32{0}}}, "non-memory"},
		{"load with args", []Instr{{Class: isa.IntALU}, {Class: isa.Load, Addr: []int32{0}, Args: []int32{0}}}, "value operands"},
		{"store no data", []Instr{{Class: isa.IntALU}, {Class: isa.Store, Addr: []int32{0}}}, "exactly one data"},
		{"store as producer", []Instr{
			{Class: isa.IntALU},
			{Class: isa.Store, Addr: []int32{0}, Args: []int32{0}},
			{Class: isa.IntALU, Args: []int32{1}},
		}, "stores produce no value"},
	}
	for _, tc := range cases {
		_, err := New("", tc.instrs...)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestBuilderRejectsStoreWithoutData: New refuses a dataless store
// before it reaches the slabs, so this builds one through Builder to
// reach Validate's own check.
func TestBuilderRejectsStoreWithoutData(t *testing.T) {
	b := NewBuilder("")
	b.Emit(isa.IntALU, 0)
	b.Emit(isa.Store, 0x40)
	_, err := b.Trace()
	if err == nil {
		t.Fatal("accepted a store with no operands")
	}
	if !strings.Contains(err.Error(), "exactly one data") {
		t.Errorf("error %q does not mention %q", err, "exactly one data")
	}
}

func TestStats(t *testing.T) {
	s := chainTrace().Stats()
	if s.Total != 4 || s.ByClass[isa.IntALU] != 1 || s.ByClass[isa.FPALU] != 1 ||
		s.ByClass[isa.Load] != 1 || s.ByClass[isa.Store] != 1 {
		t.Fatalf("bad stats: %+v", s)
	}
	if s.MemRefs != 2 || s.MemFrac != 0.5 {
		t.Fatalf("mem stats wrong: %+v", s)
	}
	// operands: load 1, fp 1, store 2 => 4/4 = 1.0
	if s.AvgInDeg != 1.0 {
		t.Fatalf("AvgInDeg = %v, want 1.0", s.AvgInDeg)
	}
	if !strings.Contains(s.String(), "total=4") {
		t.Errorf("Stats.String missing total: %s", s)
	}
}

func TestCriticalPath(t *testing.T) {
	tr := chainTrace()
	tm := isa.Timing{MD: 10, FPLat: 3, CopyLat: 1}
	// int(1) -> load(10+2) -> fp(3) -> store(1) = 17
	if got := tr.CriticalPath(tm); got != 17 {
		t.Fatalf("critical path = %d, want 17", got)
	}
	tm.MD = 0
	// 1 + 2 + 3 + 1 = 7
	if got := tr.CriticalPath(tm); got != 7 {
		t.Fatalf("critical path md=0 = %d, want 7", got)
	}
	empty := mustTrace("", nil)
	if empty.CriticalPath(tm) != 0 {
		t.Error("empty trace should have zero critical path")
	}
}

func TestCriticalPathMonotoneInMD(t *testing.T) {
	tr := chainTrace()
	prev := int64(-1)
	for md := 0; md <= 60; md += 10 {
		cp := tr.CriticalPath(isa.Timing{MD: md, FPLat: 3, CopyLat: 1})
		if cp < prev {
			t.Fatalf("critical path decreased at md=%d: %d < %d", md, cp, prev)
		}
		prev = cp
	}
}

func TestILPProfile(t *testing.T) {
	// Two independent chains of length 2 => levels: 2 at depth 0, 2 at depth 1.
	tr := mustTrace("", []Instr{
		{Class: isa.IntALU},
		{Class: isa.IntALU},
		{Class: isa.IntALU, Args: []int32{0}},
		{Class: isa.IntALU, Args: []int32{1}},
	})
	prof := tr.ILPProfile()
	if !reflect.DeepEqual(prof, []int{2, 2}) {
		t.Fatalf("profile = %v, want [2 2]", prof)
	}
	if got := tr.MeanILP(); got != 2.0 {
		t.Fatalf("MeanILP = %v, want 2", got)
	}
}

// randomTrace generates a structurally valid random trace for property tests.
func randomTrace(rng *rand.Rand, n int) *Trace {
	var instrs []Instr
	// Track indices of value-producing instructions for operand selection.
	var producers []int32
	for i := 0; i < n; i++ {
		pick := func() int32 {
			return producers[rng.Intn(len(producers))]
		}
		var in Instr
		switch {
		case len(producers) == 0:
			in = Instr{Class: isa.IntALU}
		default:
			switch rng.Intn(5) {
			case 0:
				in = Instr{Class: isa.IntALU}
				for k := rng.Intn(3); k > 0; k-- {
					in.Args = append(in.Args, pick())
				}
			case 1:
				in = Instr{Class: isa.FPALU, Args: []int32{pick()}}
				if rng.Intn(2) == 0 {
					in.Args = append(in.Args, pick())
				}
			case 2:
				in = Instr{Class: isa.Load, Addr: []int32{pick()}, MemAddr: uint64(rng.Intn(1 << 20))}
			case 3:
				in = Instr{Class: isa.Store, Addr: []int32{pick()}, Args: []int32{pick()}, MemAddr: uint64(rng.Intn(1 << 20))}
			default:
				in = Instr{Class: isa.IntALU, Args: []int32{pick()}}
			}
		}
		if in.Class != isa.Store {
			producers = append(producers, int32(i))
		}
		instrs = append(instrs, in)
	}
	return mustTrace("random", instrs)
}

func TestRandomTracesValid(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, int(size)+1)
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodeRoundTrip holds the text codec to an exact round trip:
// the whole slabs and the digests compared, so a field WriteText drops
// fails here.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, int(size)+1)
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got, err := ReadText(&buf, "unnamed")
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return sameTrace(got, tr) && got.Digest() == tr.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReadTextRejectsOverlongLine: a line past the scanner limit fails
// naming its line, like every other malformed line.
func TestReadTextRejectsOverlongLine(t *testing.T) {
	in := "# trace long\nint\nint " + strings.Repeat("^1 ", maxTextLine/3+1) + "\n"
	_, err := ReadText(strings.NewReader(in), "x")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("overlong line: error %v does not name line 3", err)
	}
}

func TestDump(t *testing.T) {
	var buf bytes.Buffer
	if err := Dump(&buf, chainTrace(), 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "showing 2") || !strings.Contains(out, "load") {
		t.Fatalf("dump output unexpected:\n%s", out)
	}
	buf.Reset()
	if err := Dump(&buf, chainTrace(), 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "store") {
		t.Fatal("full dump should include the store")
	}
}
