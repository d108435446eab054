package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"strings"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/kernel"
	"daesim/internal/lower"
	"daesim/internal/memsys"
	"daesim/internal/partition"
	"daesim/internal/trace"
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

// TestFingerprintCoversAllOpFields pins engine.Op's field list for
// loweredDigest, the lowering guard's content hash: it hashes every Op
// field by hand, so a new field a lowering can set must be added to it
// (or the guard would miss lowering changes that only touch that field).
func TestFingerprintCoversAllOpFields(t *testing.T) {
	auditFields(t, reflect.TypeOf(engine.Op{}), "loweredDigest", []string{
		"Kind", "Unit", "Srcs", "MemSrc", "Addr", "Orig",
	})
}

// TestFingerprintCoversSourceFields pins the fields the source key
// reads: every trace.Instr field (trace.Digest) and every
// per-instruction slice of the partition assignment (assignmentDigest).
// daelint's schemaguard proves the same statically; the assignment's
// op counts are derived from the slices and stay unkeyed.
func TestFingerprintCoversSourceFields(t *testing.T) {
	auditFields(t, reflect.TypeOf(trace.Instr{}), "trace.Digest", []string{
		"Class", "Addr", "Args", "MemAddr",
	})
	auditFields(t, reflect.TypeOf(partition.Assignment{}), "assignmentDigest", []string{
		"Unit", "InAddrSlice", "RecvAU", "RecvDU",
		"OpsAU", "OpsDU", "SelfLoads", // derived counters, unkeyed
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
		{Window: 64, MD: 60, Mem: memsys.Spec{Kind: memsys.BypassModel, Lines: 64}},
		{Window: 64, MD: 60, Mem: memsys.Spec{Kind: memsys.BypassModel, Lines: 65}},
		{Window: 64, MD: 60, Mem: memsys.DefaultCacheSpec()},
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

// referenceFingerprint is Fingerprint's input written the slow, obvious
// way: one hash Write per field, the lowering version, then the trace,
// then the assignment.
// Fingerprint must stay equal to it, so persistent-store keys survive
// changes to how the streams are buffered or memoized.
func referenceFingerprint(s *Suite) string {
	th := sha256.New()
	w32 := func(h hash.Hash, x uint32) {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], x)
		h.Write(buf[:])
	}
	tr := s.Trace
	w32(th, uint32(len(tr.Name)))
	th.Write([]byte(tr.Name))
	w32(th, uint32(len(tr.Instrs)))
	for i := range tr.Instrs {
		in := &tr.Instrs[i]
		th.Write([]byte{byte(in.Class)})
		for _, refs := range [][]int32{in.Addr, in.Args} {
			w32(th, uint32(len(refs)))
			for _, r := range refs {
				w32(th, uint32(r))
			}
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], in.MemAddr)
		th.Write(buf[:])
	}
	ah := sha256.New()
	a := s.Assignment()
	w32(ah, uint32(len(a.Unit)))
	for _, u := range a.Unit {
		ah.Write([]byte{byte(u)})
	}
	for _, flags := range [][]bool{a.InAddrSlice, a.RecvAU, a.RecvDU} {
		w32(ah, uint32(len(flags)))
		for _, f := range flags {
			b := byte(0)
			if f {
				b = 1
			}
			ah.Write([]byte{b})
		}
	}
	h := sha256.New()
	h.Write([]byte(lower.Version))
	h.Write(th.Sum(nil))
	h.Write(ah.Sum(nil))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFingerprintMatchesReference pins every source key the persistent
// store is keyed by: each catalog workload and a generated one, under
// every partition policy. It also checks that a repartitioned suite is
// indistinguishable from one lowered from scratch under the new policy.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, name := range guardWorkloads() {
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
				if re.swsm != fresh[from].swsm || re.Trace != tr {
					t.Errorf("%s: Repartition(%v→%v) must share the trace and SWSM program", name, from, to)
				}
				if got, want := re.Fingerprint(), fresh[to].Fingerprint(); got != want {
					t.Errorf("%s: Repartition(%v→%v) fingerprint %s, NewSuite(%v) %s", name, from, to, got, to, want)
				}
			}
		}
	}
}

// TestRepartitionReusesTraceDigest: a repartitioned suite takes its
// trace digest from the shared trace's memo instead of hashing the
// trace again. The test breaks the trace's immutability on purpose
// after the base suite was keyed — a load's MemAddr moves, which no
// partition reads — so a recomputed digest would show as a new key.
func TestRepartitionReusesTraceDigest(t *testing.T) {
	tr, err := workloads.Build("TRFD", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSuite(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	key := base.Fingerprint()
	for i := range tr.Instrs {
		if tr.Instrs[i].Class == isa.Load {
			tr.Instrs[i].MemAddr += 8
			break
		}
	}
	re, err := base.Repartition(partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Fingerprint(); got != key {
		t.Errorf("repartitioned suite rehashed its trace: key %s, base %s", got, key)
	}
	moved, err := NewSuite(&trace.Trace{Name: tr.Name, Instrs: tr.Instrs}, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Fingerprint() == key {
		t.Error("a fresh trace with a moved MemAddr must key differently")
	}
}

// TestFingerprintSharesIdenticalAssignments: the key names the
// assignment, not the policy. A kernel whose every integer op computes
// an address partitions identically under every policy, so its suites
// share one key (and one set of store entries); a data-side integer op
// makes the policies disagree, and the keys with them.
func TestFingerprintSharesIdenticalAssignments(t *testing.T) {
	build := func(dataInt bool) *trace.Trace {
		b := kernel.New("asg")
		arr := b.Array("a", 64, 8)
		for i := 0; i < 16; i++ {
			base := b.Int()
			v := b.FP(b.Load(arr, i, base))
			if dataInt {
				v = b.Int(b.Load(arr, 16+i, base))
			}
			b.Store(arr, 32+i, v, base)
		}
		return b.MustTrace()
	}
	keys := func(tr *trace.Trace) map[partition.Policy]string {
		out := map[partition.Policy]string{}
		for _, pol := range partition.Policies() {
			s, err := NewSuite(tr, pol)
			if err != nil {
				t.Fatal(err)
			}
			out[pol] = s.Fingerprint()
		}
		return out
	}
	same := keys(build(false))
	for _, pol := range partition.Policies() {
		if same[pol] != same[partition.Classic] {
			t.Errorf("address-only kernel: %v keys %s, classic %s (identical assignments must share a key)", pol, same[pol], same[partition.Classic])
		}
	}
	diff := keys(build(true))
	if diff[partition.Classic] == diff[partition.SliceOnly] {
		t.Error("classic and slice-only assign the data-side integer ops differently but share a key")
	}
}

// TestFingerprintTracksSpecAndScale: a generated workload's seed and the
// workload scale both reach the key, through the trace they build.
func TestFingerprintTracksSpecAndScale(t *testing.T) {
	key := func(name string, scale int) string {
		tr, err := workloads.Build(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSuite(tr, partition.Classic)
		if err != nil {
			t.Fatal(err)
		}
		return s.Fingerprint()
	}
	const spec = "spec:depth=4,ilp=2,mem=0.5,addr=gather,iters=32,seed=%d"
	if key(fmt.Sprintf(spec, 1), 1) == key(fmt.Sprintf(spec, 2), 1) {
		t.Error("changing a spec seed must change the key")
	}
	for _, name := range []string{fmt.Sprintf(spec, 1), "TRFD"} {
		if key(name, 1) == key(name, 2) {
			t.Errorf("%s: changing the scale must change the key", name)
		}
	}
}

// BenchmarkSuiteFingerprint keys MDG's classic suite, the largest trace
// of the catalog's figure workloads, from a fresh trace each iteration:
// the cost a pass pays the first time it keys a workload (the trace
// digest plus one assignment digest).
func BenchmarkSuiteFingerprint(b *testing.B) {
	tr, err := workloads.Build("MDG", 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSuite(tr, partition.Classic)
	if err != nil {
		b.Fatal(err)
	}
	n := int64(len(tr.Name)) + 8 + 4*int64(len(s.Assignment().Unit)) + 16
	for i := range tr.Instrs {
		n += 1 + 8 + 8 + 4*int64(len(tr.Instrs[i].Addr)+len(tr.Instrs[i].Args))
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Trace and Suite per iteration: both memoize.
		fresh := &Suite{Trace: &trace.Trace{Name: tr.Name, Instrs: tr.Instrs}, asg: s.asg}
		fresh.Fingerprint()
	}
}
