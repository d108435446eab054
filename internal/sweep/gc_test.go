package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"daesim/internal/engine"
)

// gcStore opens a store in a temp dir and installs n synthetic entries
// key-0 .. key-n-1, backdating entry i's access time to base + i
// seconds so LRU order is deterministic (oldest = lowest index).
func gcStore(t *testing.T, n int, base time.Time) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		st.Put(key, &engine.Result{Cycles: int64(i)})
		backdate(t, st, key, base.Add(time.Duration(i)*time.Second))
	}
	return st
}

// backdate sets the access time the handle holds for key.
func backdate(t *testing.T, st *Store, key string, at time.Time) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.idx.m[key]
	if e == nil {
		t.Fatalf("%s is not indexed", key)
	}
	e.atime.Store(at.UnixNano())
}

func TestGCMaxEntriesEvictsLRU(t *testing.T) {
	base := time.Now().Add(-time.Hour) //daelint:nondeterministic-ok GC tests fabricate mtimes relative to the real clock
	st := gcStore(t, 10, base)
	res, err := st.GC(GCPolicy{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 10 || res.Evicted != 6 || res.Remaining != 4 {
		t.Fatalf("want 10 scanned / 6 evicted / 4 kept, got %+v", res)
	}
	// The oldest six are gone, the newest four survive.
	for i := 0; i < 10; i++ {
		_, ok := st.Get(fmt.Sprintf("key-%d", i))
		if want := i >= 6; ok != want {
			t.Errorf("key-%d: present=%v, want %v", i, ok, want)
		}
	}
	if ev := st.Stats().GCEvictions; ev != 6 {
		t.Errorf("GCEvictions = %d, want 6", ev)
	}
}

func TestGCRecencyIsAccessNotInstall(t *testing.T) {
	base := time.Now().Add(-time.Hour) //daelint:nondeterministic-ok GC tests fabricate mtimes relative to the real clock
	st := gcStore(t, 6, base)
	// Touch the two oldest entries via Get: they become the most recent.
	for _, k := range []string{"key-0", "key-1"} {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("%s should hit", k)
		}
	}
	if _, err := st.GC(GCPolicy{MaxEntries: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		_, ok := st.Get(fmt.Sprintf("key-%d", i))
		if want := i <= 1; ok != want {
			t.Errorf("key-%d: present=%v, want %v (LRU must track access time)", i, ok, want)
		}
	}
}

// TestGCRecencySurvivesCompaction: compaction saves the access times a
// handle holds, so a pass in a fresh handle (another process) still
// evicts by access, not install, order.
func TestGCRecencySurvivesCompaction(t *testing.T) {
	base := time.Now().Add(-time.Hour) //daelint:nondeterministic-ok GC tests fabricate access times relative to the real clock
	st := gcStore(t, 6, base)
	for _, k := range []string{"key-0", "key-1"} {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("%s should hit", k)
		}
	}
	if res, err := st.GC(GCPolicy{MaxEntries: 6}); err != nil || res.Evicted != 0 {
		t.Fatalf("in-bounds pass must evict nothing: %+v, %v", res, err)
	}
	fresh, err := OpenStore(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.GC(GCPolicy{MaxEntries: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		_, ok := fresh.Get(fmt.Sprintf("key-%d", i))
		if want := i <= 1; ok != want {
			t.Errorf("key-%d: present=%v, want %v (saved recency must order a later pass)", i, ok, want)
		}
	}
	if n := len(segPaths(t, st.Dir())); n != 1 {
		t.Errorf("compaction must leave one segment, found %d", n)
	}
}

// TestGCSparesLiveWriter: a segment another handle is still appending
// to stays, with its entries, for a later pass; that handle's own pass
// then compacts the store to one segment.
func TestGCSparesLiveWriter(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	other, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		writer.Put(fmt.Sprintf("w-%d", i), &engine.Result{Cycles: int64(i)})
		other.Put(fmt.Sprintf("o-%d", i), &engine.Result{Cycles: int64(i)})
	}
	res, err := other.GC(GCPolicy{MaxEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 8 || res.Evicted != 3 || res.Remaining != 5 {
		t.Fatalf("only the unlocked segments' entries may go: %+v", res)
	}
	for i := 0; i < 4; i++ {
		if _, ok := other.Get(fmt.Sprintf("w-%d", i)); !ok {
			t.Errorf("w-%d: a live writer's entry was evicted", i)
		}
	}
	writer.Put("w-4", &engine.Result{Cycles: 4})
	if _, ok := other.Get("w-4"); !ok {
		t.Error("the spared writer's later appends must stay visible")
	}
	if res, err := writer.GC(GCPolicy{MaxEntries: 2}); err != nil || res.Scanned != 6 || res.Remaining != 2 {
		t.Fatalf("writer's own pass: %+v, %v", res, err)
	}
	if n := len(segPaths(t, dir)); n != 1 {
		t.Fatalf("with no live writer left the pass must compact to one segment, got %d", n)
	}
}

func TestGCMaxBytes(t *testing.T) {
	base := time.Now().Add(-time.Hour) //daelint:nondeterministic-ok GC tests fabricate mtimes relative to the real clock
	st := gcStore(t, 8, base)
	// All entries are the same size; bound to roughly three entries' bytes.
	_, total := st.Usage()
	per := total / 8
	res, err := st.GC(GCPolicy{MaxBytes: 3*per + per/2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining != 3 {
		t.Fatalf("want 3 entries within %d bytes, got %+v", 3*per+per/2, res)
	}
	if res.RemainingBytes > 3*per+per/2 {
		t.Fatalf("RemainingBytes %d exceeds the bound", res.RemainingBytes)
	}
	for i := 5; i < 8; i++ {
		if _, ok := st.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Errorf("key-%d (most recent) should survive a byte-bound GC", i)
		}
	}
}

func TestGCMaxAge(t *testing.T) {
	st := gcStore(t, 4, time.Now().Add(-time.Hour)) //daelint:nondeterministic-ok GC tests fabricate mtimes relative to the real clock
	// key-4 installed now: inside any reasonable age bound.
	st.Put("key-4", &engine.Result{Cycles: 4})
	res, err := st.GC(GCPolicy{MaxAge: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 4 || res.Remaining != 1 {
		t.Fatalf("want the 4 hour-old entries evicted and the fresh one kept, got %+v", res)
	}
	if _, ok := st.Get("key-4"); !ok {
		t.Error("fresh entry evicted by age bound")
	}
}

func TestGCUnboundedPolicyIsANoop(t *testing.T) {
	st := gcStore(t, 5, time.Now().Add(-time.Hour)) //daelint:nondeterministic-ok GC tests fabricate mtimes relative to the real clock
	res, err := st.GC(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 0 || res.Remaining != 5 {
		t.Fatalf("unbounded GC must evict nothing: %+v", res)
	}
	if (GCPolicy{}).Bounded() {
		t.Error("zero policy must report unbounded")
	}
}

// TestGCKeepsNonCompactRecords: a record the full parse accepts with a
// non-compact result (whitespace inside it, its sum over those bytes)
// reads the same after compaction. GC writes the result it verified
// verbatim, so the sum still matches.
func TestGCKeepsNonCompactRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("k", &engine.Result{Cycles: 5})
	st.Close()
	spaced := `{"Cycles": 5}`
	sum := sha256.Sum256([]byte(spaced))
	rewriteRecord(t, segPaths(t, dir)[0], func([]byte) []byte {
		return []byte(`{"key":"k","sum":"` + hex.EncodeToString(sum[:]) + `","result":` + spaced + `}`)
	})
	fresh, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if res, ok := fresh.Get("k"); !ok || res.Cycles != 5 {
		t.Fatal("the non-compact record must read before GC")
	}
	if _, err := fresh.GC(GCPolicy{}); err != nil {
		t.Fatal(err)
	}
	if res, ok := fresh.Get("k"); !ok || res.Cycles != 5 {
		t.Fatal("the non-compact record must read after GC")
	}
	if c := fresh.Stats().Corrupt; c != 0 {
		t.Errorf("GC left %d corrupt records", c)
	}
	data, err := os.ReadFile(segPaths(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"result":`+spaced+`}`) {
		t.Errorf("compaction must keep the result bytes its sum covers, wrote %q", data)
	}
}

// TestGCConcurrentReadersWriters hammers one store with readers, writers
// and GC passes at once (run under -race in CI). The invariants: a Get
// either returns the complete, correct result or a clean miss — never a
// corrupt entry (compaction renames a complete segment into place and
// unlinks segments no reader is mid-way through, so no reader can
// observe partial bytes) — and the store stays usable throughout.
func TestGCConcurrentReadersWriters(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 32
	key := func(i int) string { return fmt.Sprintf("key-%d", i%keys) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select { //daelint:nondeterministic-ok stop-signal poll in a churn stress test; no result depends on which case wins
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keys)
				switch rng.Intn(3) {
				case 0:
					st.Put(key(k), &engine.Result{Cycles: int64(k)})
				case 1:
					if res, ok := st.Get(key(k)); ok && res.Cycles != int64(k) {
						t.Errorf("Get(%s) returned cycles %d, want %d", key(k), res.Cycles, k)
						return
					}
				case 2:
					if _, err := st.GC(GCPolicy{MaxEntries: keys / 2}); err != nil {
						t.Errorf("GC: %v", err)
						return
					}
				}
			}
		}(int64(w))
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if c := st.Stats().Corrupt; c != 0 {
		t.Errorf("concurrent GC produced %d corrupt reads (eviction must be atomic)", c)
	}
	// The store must still work after the storm.
	st.Put("after", &engine.Result{Cycles: 99})
	if res, ok := st.Get("after"); !ok || res.Cycles != 99 {
		t.Error("store unusable after concurrent GC")
	}
}

// TestGCNeverEvictsMidRead pins the mid-read safety property directly:
// a reader that has opened a segment gets its complete bytes even if GC
// unlinks the file before the read finishes. The fd keeps the file, so
// the unlink only removes the name.
func TestGCNeverEvictsMidRead(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Put("k", &engine.Result{Cycles: 7})
	f, err := os.Open(segPaths(t, st.Dir())[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := st.GC(GCPolicy{MaxEntries: 0, MaxAge: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 1 {
		t.Fatalf("entry should have been age-evicted: %+v", res)
	}
	buf := make([]byte, 1<<16)
	n, _ := f.Read(buf)
	if !strings.Contains(string(buf[:n]), `"key":"k"`) {
		t.Error("reader holding the fd must still see the complete entry after eviction")
	}
	if _, ok := st.Get("k"); ok {
		t.Error("new readers must miss after eviction")
	}
}

func TestParseGCPolicy(t *testing.T) {
	p, err := ParseGCPolicy("max-entries=500,max-bytes=64mb,max-age=168h")
	if err != nil {
		t.Fatal(err)
	}
	want := GCPolicy{MaxEntries: 500, MaxBytes: 64 << 20, MaxAge: 168 * time.Hour}
	if p != want {
		t.Fatalf("got %+v, want %+v", p, want)
	}
	if got := p.String(); got != "max-entries=500,max-bytes=67108864,max-age=168h0m0s" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "max-entries", "max-entries=x", "max-bytes=-1", "max-age=yesterday", "entries=3",
		"max-bytes=17179869185gb", "max-bytes=8589934592gb"} { // past MaxInt64 bytes: no wrap-around
		if _, err := ParseGCPolicy(bad); err == nil {
			t.Errorf("ParseGCPolicy(%q) should fail", bad)
		}
	}
	if p, err := ParseGCPolicy("max-bytes=1024"); err != nil || p.MaxBytes != 1024 {
		t.Errorf("plain byte count: %+v, %v", p, err)
	}
}

func TestGCResultStringReportsErrors(t *testing.T) {
	r := GCResult{Scanned: 3, Evicted: 1, EvictedBytes: 10, Remaining: 2, RemainingBytes: 20}
	if got := r.String(); strings.Contains(got, "errors") {
		t.Errorf("error-free pass must keep the pinned format: %q", got)
	}
	r.Errors = 2
	if got := r.String(); !strings.Contains(got, "2 eviction errors") {
		t.Errorf("failed unlinks must surface in the summary: %q", got)
	}
}
