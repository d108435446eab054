package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/kernel"
	"daesim/internal/partition"
	"daesim/internal/workloads"
)

// TestCacheKeyCoversAllParams pins Params' field list by name
// (daelint's schemaguard proves the encoding coverage statically; this
// is the runtime backstop). If this fails you added, removed or renamed
// a Params field: extend Params.CacheKey's canonical encoding to cover
// it, then update the list here. Skipping the encoding would silently
// alias distinct configurations in the persistent result cache.
func TestCacheKeyCoversAllParams(t *testing.T) {
	auditFields(t, reflect.TypeOf(Params{}), "CacheKey", []string{
		"Window", "AUWindow", "DUWindow", "MD", "FPLat", "CopyLat",
		"AUWidth", "DUWidth", "Width", "DispatchWidth", "MemQueue",
		"Mem", "CollectESW", "HoldSendSlots", "Retire",
	})
}

// TestFingerprintCoversAllOpFields pins engine.Op's field list the same
// way: Suite.Fingerprint hashes every Op field by hand, so a new field
// that can affect simulation results must be added to the hash (or the
// persistent store would alias suites differing only in that field).
func TestFingerprintCoversAllOpFields(t *testing.T) {
	auditFields(t, reflect.TypeOf(engine.Op{}), "Fingerprint", []string{
		"Kind", "Unit", "Srcs", "MemSrc", "Addr", "Orig",
	})
}

// auditFields fails naming the exact fields that drifted from the
// audited list.
func auditFields(t *testing.T, typ reflect.Type, encoder string, known []string) {
	t.Helper()
	have := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		have[typ.Field(i).Name] = true
	}
	audited := map[string]bool{}
	for _, n := range known {
		audited[n] = true
		if !have[n] {
			t.Errorf("%s.%s was audited but is no longer declared: update the audit list", typ.Name(), n)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if n := typ.Field(i).Name; !audited[n] {
			t.Errorf("%s.%s is not covered by the %s audit: extend %s (or annotate it for daelint), then add it here", typ.Name(), n, encoder, encoder)
		}
	}
}

func TestCacheKeyDistinguishesEveryField(t *testing.T) {
	base := Params{Window: 64, MD: 60}
	variants := []Params{
		{Window: 65, MD: 60},
		{Window: 64, AUWindow: 32, MD: 60},
		{Window: 64, DUWindow: 32, MD: 60},
		{Window: 64, MD: 61},
		{Window: 64, MD: 60, FPLat: 4},
		{Window: 64, MD: 60, CopyLat: 2},
		{Window: 64, MD: 60, AUWidth: 3},
		{Window: 64, MD: 60, DUWidth: 6},
		{Window: 64, MD: 60, Width: 8},
		{Window: 64, MD: 60, DispatchWidth: 2},
		{Window: 64, MD: 60, MemQueue: 7},
		{Window: 64, MD: 60, CollectESW: true},
		{Window: 64, MD: 60, HoldSendSlots: true},
		{Window: 64, MD: 60, Retire: RetireAtComplete}, // auto resolves to in-order
	}
	for _, kind := range []Kind{DM, SWSM} {
		bk, ok := base.CacheKey(kind)
		if !ok {
			t.Fatalf("%v: base params must be cacheable", kind)
		}
		seen := map[string]int{bk: -1}
		for i, v := range variants {
			k, ok := v.CacheKey(kind)
			if !ok {
				t.Fatalf("%v variant %d: must be cacheable", kind, i)
			}
			if prev, dup := seen[k]; dup {
				t.Errorf("%v: variants %d and %d collide on %q", kind, prev, i, k)
			}
			seen[k] = i
		}
	}
}

func TestCacheKeyResolvesRetirePolicy(t *testing.T) {
	for _, kind := range []Kind{DM, SWSM} {
		p := Params{Window: 64, MD: 60}
		auto, _ := p.CacheKey(kind)
		p.Retire = RetireInOrder
		forced, _ := p.CacheKey(kind)
		if auto != forced {
			t.Errorf("%v: auto must alias forced in-order: %q vs %q", kind, auto, forced)
		}
		if !strings.Contains(auto, "ret=in-order") {
			t.Errorf("%v: auto key must record the resolved in-order policy: %q", kind, auto)
		}
		p.Retire = RetireAtComplete
		atc, _ := p.CacheKey(kind)
		if !strings.Contains(atc, "ret=at-complete") || atc == auto {
			t.Errorf("%v: at-complete must be recorded distinctly: %q", kind, atc)
		}
	}
}

func TestFingerprintTracksContent(t *testing.T) {
	build := func(n int) *Suite {
		b := kernel.New("fp")
		arr := b.Array("a", 4*n, 8)
		for i := 0; i < n; i++ {
			base := b.Int()
			b.Store(arr, 2*n+i, b.FP(b.Load(arr, i, base)), base)
		}
		s, err := NewSuite(b.MustTrace(), partition.Classic)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a1, a2, b := build(16), build(16), build(17)
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Error("identical content must fingerprint identically")
	}
	if a1.Fingerprint() == b.Fingerprint() {
		t.Error("different content must fingerprint differently")
	}
	if a1.Fingerprint() != a1.Fingerprint() {
		t.Error("fingerprint must be stable per suite")
	}
}

// referenceFingerprint is Fingerprint's byte stream written the slow,
// obvious way: one 8-byte hash Write per integer. Fingerprint must stay
// equal to it, so persistent-store keys survive changes to how the
// stream is buffered.
func referenceFingerprint(s *Suite) string {
	h := sha256.New()
	var buf [8]byte
	wInt := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, p := range []*engine.Program{s.DM.Program, s.SWSM} {
		h.Write([]byte(p.Name))
		wInt(int64(p.NumUnits))
		wInt(int64(p.TraceLen))
		wInt(int64(len(p.Ops)))
		for i := range p.Ops {
			op := &p.Ops[i]
			wInt(int64(op.Kind))
			wInt(int64(op.Unit))
			wInt(int64(op.MemSrc))
			wInt(int64(op.Addr))
			wInt(int64(op.Orig))
			wInt(int64(len(op.Srcs)))
			for _, src := range op.Srcs {
				wInt(int64(src))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFingerprintMatchesReference pins every fingerprint the persistent
// store is keyed by: each catalog workload and a generated one, under
// every partition policy. It also checks that a repartitioned suite is
// indistinguishable from one lowered from scratch under the new policy.
func TestFingerprintMatchesReference(t *testing.T) {
	names := []string{"spec:depth=8,ilp=4,mem=0.4,addr=gather,iters=64,seed=3"}
	for _, spec := range workloads.Catalog() {
		names = append(names, spec.Name)
	}
	for _, name := range names {
		tr, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		fresh := map[partition.Policy]*Suite{}
		for _, pol := range partition.Policies() {
			s, err := NewSuite(tr, pol)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s.Fingerprint(), referenceFingerprint(s); got != want {
				t.Errorf("%s/%v: Fingerprint %s, reference encoder %s", name, pol, got, want)
			}
			fresh[pol] = s
		}
		for _, from := range partition.Policies() {
			for _, to := range partition.Policies() {
				re, err := fresh[from].Repartition(to)
				if err != nil {
					t.Fatal(err)
				}
				if re.SWSM != fresh[from].SWSM || re.Trace != tr {
					t.Errorf("%s: Repartition(%v→%v) must share the trace and SWSM program", name, from, to)
				}
				if got, want := re.Fingerprint(), fresh[to].Fingerprint(); got != want {
					t.Errorf("%s: Repartition(%v→%v) fingerprint %s, NewSuite(%v) %s", name, from, to, got, to, want)
				}
			}
		}
	}
}

// BenchmarkSuiteFingerprint hashes MDG's classic suite, the largest
// program pair of the catalog's figure workloads.
func BenchmarkSuiteFingerprint(b *testing.B) {
	tr, err := workloads.Build("MDG", 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSuite(tr, partition.Classic)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, p := range []*engine.Program{s.DM.Program, s.SWSM} {
		n += int64(len(p.Name)) + 3*8
		for i := range p.Ops {
			n += 8 * int64(6+len(p.Ops[i].Srcs))
		}
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Suite per iteration: Fingerprint memoizes per Suite.
		fresh := &Suite{Trace: s.Trace, DM: s.DM, SWSM: s.SWSM}
		fresh.Fingerprint()
	}
}
