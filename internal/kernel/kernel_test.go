package kernel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"daesim/internal/isa"
	"daesim/internal/trace"
)

func TestConstVal(t *testing.T) {
	if Const.Valid() {
		t.Fatal("Const must be invalid")
	}
	if Const.Index() != trace.None {
		t.Fatalf("Const.Index() = %d, want None", Const.Index())
	}
}

func TestArrayAddressing(t *testing.T) {
	b := New("t")
	a := b.Array("a", 10, 8)
	c := b.Array("c", 4, 8)
	if a.At(1)-a.At(0) != 8 {
		t.Fatalf("element stride wrong: %d", a.At(1)-a.At(0))
	}
	if a.Name() != "a" {
		t.Fatalf("name wrong: %s", a.Name())
	}
	// Arrays must not overlap and must be line-aligned apart.
	if c.At(0) < a.At(9)+8 {
		t.Fatalf("arrays overlap: c@%#x a-end@%#x", c.At(0), a.At(9)+8)
	}
	if c.At(0)%isa.CacheLineBytes != a.At(0)%isa.CacheLineBytes && c.At(0)%isa.CacheLineBytes != 0 {
		// base region starts at 1<<12, arrays are padded to line boundaries
		t.Fatalf("array base not line aligned: %#x", c.At(0))
	}
	if a.At(0) == 0 {
		t.Fatal("address 0 must not be used")
	}
}

func TestArrayPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("t").Array("bad", 0, 8)
}

func TestEmitBasics(t *testing.T) {
	b := New("t")
	base := b.Int()
	if !base.Valid() {
		t.Fatal("Int should produce a value")
	}
	arr := b.Array("x", 16, 8)
	v := b.Load(arr, 3, base)
	f := b.FP(v, Const)
	b.Store(arr, 4, f, base)
	tr := b.MustTrace()
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.MemAddr(1) != arr.At(3) {
		t.Fatalf("load address wrong: %#x", tr.MemAddr(1))
	}
	// FP should depend only on the load (Const dropped).
	if args := tr.Args(2); len(args) != 1 || args[0] != 1 {
		t.Fatalf("fp args wrong: %v", args)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreConstPanics(t *testing.T) {
	b := New("t")
	arr := b.Array("x", 4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Store(arr, 0, Const)
}

func TestChains(t *testing.T) {
	b := New("t")
	seed := b.Int()
	v := b.FPChain(5, seed)
	_ = v
	b.Int(b.Int(b.Int(seed)))
	tr := b.MustTrace()
	if tr.Len() != 1+5+3 {
		t.Fatalf("len = %d, want 9", tr.Len())
	}
	// The FP chain should be serial: depth of last FP is 5.
	tm := isa.Timing{MD: 0, FPLat: 3, CopyLat: 1}
	// critical path: int(1) + 5*fp(3) = 16
	if cp := tr.CriticalPath(tm); cp != 16 {
		t.Fatalf("critical path = %d, want 16", cp)
	}
}

func TestLoopCarriedValues(t *testing.T) {
	b := New("t")
	arr := b.Array("a", 64, 8)
	carry := b.FP()
	for i := 0; i < 8; i++ {
		x := b.Load(arr, i)
		carry = b.FP(x, carry)
	}
	tr := b.MustTrace()
	// Chain: fp0 -> fp1 -> ... -> fp8 = 9 FP ops serial; loads feed in.
	tm := isa.Timing{MD: 0, FPLat: 3, CopyLat: 1}
	// loads are independent (MD+2=2); chain = 3 + 8*3 = 27; first link also
	// waits for load: max(3, 2) + ... = 27.
	if cp := tr.CriticalPath(tm); cp != 27 {
		t.Fatalf("critical path = %d, want 27", cp)
	}
}

// Property: any program emitted via Builder methods validates.
func TestBuilderAlwaysValid(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New("prop")
		arr := b.Array("a", 256, 8)
		vals := []Val{b.Int()}
		for i := 0; i < int(steps); i++ {
			pick := func() Val { return vals[rng.Intn(len(vals))] }
			switch rng.Intn(4) {
			case 0:
				vals = append(vals, b.Int(pick(), pick()))
			case 1:
				vals = append(vals, b.FP(pick()))
			case 2:
				vals = append(vals, b.Load(arr, rng.Intn(256), pick()))
			case 3:
				b.Store(arr, rng.Intn(256), pick(), pick())
			}
		}
		_, err := b.Trace()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSnapshotGrows(t *testing.T) {
	b := New("grow")
	b.Int()
	t1 := b.MustTrace()
	b.Int()
	t2 := b.MustTrace()
	if t1.Len() != 1 || t2.Len() != 2 {
		t.Fatalf("snapshot lengths: %d then %d", t1.Len(), t2.Len())
	}
}

// slabProgram emits n loop steps of loads, FP ops and stores: 4n+2
// instructions and 7n operand references, enough at a few thousand
// steps to grow every slab several times.
func slabProgram(b *Builder, n int) {
	arr := b.Array("a", n, 8)
	base := b.Int()
	carry := b.FP()
	for i := 0; i < n; i++ {
		ix := b.Int(base)
		x := b.Load(arr, i, ix, base)
		carry = b.FP(x, carry, Const)
		b.Store(arr, i, carry, ix)
	}
}

// instrsOf copies tr's instruction stream out, operands included.
func instrsOf(tr *trace.Trace) []trace.Instr {
	out := make([]trace.Instr, tr.Len())
	for i := range out {
		out[i] = tr.At(i)
		out[i].Addr = append([]int32(nil), out[i].Addr...)
		out[i].Args = append([]int32(nil), out[i].Args...)
	}
	return out
}

// TestOperandSlicesAreCapped: instructions' operands share one slab, so
// an append to the Addr or Args of an instruction At returns must
// reallocate instead of writing into the slab, where it would overwrite
// a neighbour's.
func TestOperandSlicesAreCapped(t *testing.T) {
	b := New("slab")
	slabProgram(b, 2000)
	tr := b.MustTrace()
	want := instrsOf(tr)
	for i := range tr.Len() {
		in := tr.At(i)
		_ = append(in.Addr, -7)
		_ = append(in.Args, -7)
	}
	if !reflect.DeepEqual(instrsOf(tr), want) {
		t.Fatal("appending to one instruction's operands changed another's")
	}
}

// TestTraceUnchangedByLaterEmits: the builder stays usable after Trace,
// and what it emits later, into the slabs' spare room and then past it,
// never shows in a trace it already returned.
func TestTraceUnchangedByLaterEmits(t *testing.T) {
	b := New("snap")
	slabProgram(b, 300)
	tr := b.MustTrace()
	want := instrsOf(tr)
	slabProgram(b, 3000)
	if !reflect.DeepEqual(instrsOf(tr), want) {
		t.Fatal("later emits changed a returned trace")
	}
	got := b.MustTrace()
	if got.Len() != len(want)+4*3000+2 || !reflect.DeepEqual(instrsOf(got)[:len(want)], want) {
		t.Fatalf("second trace: %d instructions, want %d starting with the first trace", got.Len(), len(want)+4*3000+2)
	}
}
