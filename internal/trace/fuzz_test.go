package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzTraceDecode hardens the trace decoder, ReadText, against untrusted
// bytes: malformed, truncated and oversized input must come back as an
// error, never a panic or a runaway allocation. Anything it accepts must
// be a valid trace that survives a WriteText/ReadText round trip
// exactly. Seed corpus under testdata/fuzz/FuzzTraceDecode; its binary_*
// entries are inputs the decoder must refuse. CI live-fuzzes it on
// every PR next to the batch-body fuzzers.
func FuzzTraceDecode(f *testing.F) {
	var text bytes.Buffer
	if err := WriteText(&text, randomTrace(rand.New(rand.NewSource(1)), 60)); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add(text.Bytes()[:len(text.Bytes())/2]) // truncated mid-stream
	f.Add([]byte("# trace x\nint\nload ^1 @0xfff\nstore ^1 ^2 @16\nfp ^9\n"))
	f.Add([]byte("fp ^1\n")) // operand before the first instruction
	// A binary header claiming 4G instructions over 3 trailing bytes.
	f.Add([]byte("DAET\x01\x00\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := ReadText(bytes.NewReader(data), "fuzz"); err == nil {
			roundTrip(t, tr)
		}
	})
}

// roundTrip asserts an accepted trace is valid and encodes/decodes to
// itself: the same name, equal slabs, an equal digest and bit-stable
// bytes.
func roundTrip(t *testing.T, tr *Trace) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("decoder accepted an invalid trace: %v", err)
	}
	var a bytes.Buffer
	if err := WriteText(&a, tr); err != nil {
		t.Fatalf("re-encoding an accepted trace: %v", err)
	}
	again, err := ReadText(bytes.NewReader(a.Bytes()), "other")
	if err != nil {
		t.Fatalf("re-decoding an accepted trace: %v", err)
	}
	if !sameTrace(again, tr) || again.Digest() != tr.Digest() {
		t.Fatal("text round trip changed the trace")
	}
	var b bytes.Buffer
	if err := WriteText(&b, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("text round trip is not bit-stable")
	}
}
