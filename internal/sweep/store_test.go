package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/kernel"
	"daesim/internal/machine"
	"daesim/internal/partition"
)

// storeSuite builds a small deterministic suite; n varies the trace so
// tests can model a workload recalibration (different content, same
// construction path).
func storeSuite(t *testing.T, n int) *machine.Suite {
	t.Helper()
	b := kernel.New("store")
	arr := b.Array("a", 4*n, 8)
	for i := 0; i < n; i++ {
		base := b.Int()
		v := b.Load(arr, i, base)
		b.Store(arr, 2*n+i, b.FP(v), base)
	}
	s, err := machine.NewSuite(b.MustTrace(), partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func storeRunner(t *testing.T, dir string, n int) *Runner {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(storeSuite(t, n))
	r.Store = st
	return r
}

var storePoint = Point{Kind: machine.SWSM, P: machine.Params{Window: 8, MD: 20}}

// TestStoreHitAcrossRestart is the core persistence property: a fresh
// Runner and a fresh Store handle (a new process) serve a previously
// simulated point from disk without simulating.
func TestStoreHitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	r1 := storeRunner(t, dir, 24)
	a, err := r1.Run(storePoint)
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Sims != 1 || st.StoreHits != 0 {
		t.Fatalf("cold run: want 1 sim, got %+v", st)
	}
	if st := r1.Store.Stats(); st.Writes != 1 {
		t.Fatalf("cold run: want 1 store write, got %+v", st)
	}

	r2 := storeRunner(t, dir, 24) // fresh L1, fresh Store handle, same dir
	b, err := r2.Run(storePoint)
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Sims != 0 || st.StoreHits != 1 {
		t.Fatalf("warm run must not simulate: %+v", st)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("store round-trip changed the result:\ncold %+v\nwarm %+v", a, b)
	}
}

// TestStoreKeyScheme pins what the persistent key must cover: the engine
// version tag (a semantic bump invalidates everything), the suite
// source key (a recalibrated workload or a lowering bump misses), and the
// canonical parameter encoding (distinct points never collide).
func TestStoreKeyScheme(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir, 24)
	k, ok := r.storeKey(storePoint)
	if !ok {
		t.Fatal("default params must be cacheable")
	}
	if !strings.Contains(k, engine.Version) {
		t.Errorf("key %q does not embed engine.Version %q", k, engine.Version)
	}
	if !strings.Contains(k, r.Suite.Fingerprint()) {
		t.Errorf("key %q does not embed the suite fingerprint", k)
	}
	p2 := storePoint
	p2.P.MD++
	k2, _ := r.storeKey(p2)
	if k2 == k {
		t.Error("distinct params must produce distinct keys")
	}
	memPt := storePoint
	memPt.P.Mem = &countingMem{}
	if _, ok := r.storeKey(memPt); ok {
		t.Error("custom-Mem points must not be persistable")
	}
}

// TestStoreMissOnRecalibration: same construction path, different trace
// content — as after a workload recalibration — must not hit.
func TestStoreMissOnRecalibration(t *testing.T) {
	dir := t.TempDir()
	r1 := storeRunner(t, dir, 24)
	if _, err := r1.Run(storePoint); err != nil {
		t.Fatal(err)
	}
	r2 := storeRunner(t, dir, 25) // "recalibrated" workload
	if _, err := r2.Run(storePoint); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Sims != 1 || st.StoreHits != 0 {
		t.Fatalf("recalibrated workload must re-simulate, got %+v", st)
	}
}

// TestStoreMissOnEngineVersionBump models an engine-semantics bump by
// rewriting a stored entry under a mutated version prefix: the real key
// must then miss, exactly as every stale entry does after a bump.
func TestStoreMissOnEngineVersionBump(t *testing.T) {
	dir := t.TempDir()
	r1 := storeRunner(t, dir, 24)
	res, err := r1.Run(storePoint)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := r1.storeKey(storePoint)
	if _, ok := r1.Store.Get(key); !ok {
		t.Fatal("entry must be on disk under the current version")
	}
	if err := r1.Store.Clear(); err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(key, engine.Version, engine.Version+"-older", 1)
	r1.Store.Put(stale, res)
	r2 := storeRunner(t, dir, 24)
	if _, err := r2.Run(storePoint); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Sims != 1 || st.StoreHits != 0 {
		t.Fatalf("version-bumped entry must miss, got %+v", st)
	}
}

// blobPaths lists every entry file in a store directory.
func blobPaths(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestStoreCorruptedEntryRecovery: damaged entries — truncated JSON,
// bit-flipped payloads, foreign keys — are detected, deleted, and
// re-simulated; the store heals in place.
func TestStoreCorruptedEntryRecovery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bitflip", func(d []byte) []byte {
			// Flip a digit inside the payload without breaking JSON:
			// the checksum must catch it.
			s := string(d)
			i := strings.Index(s, `"result":`)
			for j := i; j < len(s); j++ {
				if s[j] >= '1' && s[j] <= '8' {
					return []byte(s[:j] + "9" + s[j+1:])
				}
			}
			t.Fatal("no digit to flip")
			return d
		}},
		{"emptied", func(d []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r1 := storeRunner(t, dir, 24)
			want, err := r1.Run(storePoint)
			if err != nil {
				t.Fatal(err)
			}
			paths := blobPaths(t, dir)
			if len(paths) != 1 {
				t.Fatalf("want 1 blob, got %v", paths)
			}
			data, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			r2 := storeRunner(t, dir, 24)
			got, err := r2.Run(storePoint)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("recovered result differs")
			}
			if st := r2.Stats(); st.Sims != 1 || st.StoreHits != 0 {
				t.Fatalf("corrupted entry must re-simulate, got %+v", st)
			}
			if st := r2.Store.Stats(); st.Corrupt != 1 {
				t.Fatalf("corruption must be counted, got %+v", st)
			}
			// The heal must reinstall a clean entry.
			r3 := storeRunner(t, dir, 24)
			if _, err := r3.Run(storePoint); err != nil {
				t.Fatal(err)
			}
			if st := r3.Stats(); st.StoreHits != 1 {
				t.Fatalf("healed entry must hit, got %+v", st)
			}
		})
	}
}

// TestStoreForeignKeyEntry: an entry whose embedded key disagrees with
// its filename (hash collision, copied file) reads as a miss.
func TestStoreForeignKeyEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("key-a", &engine.Result{Cycles: 1})
	src := blobPaths(t, dir)[0]
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Install key-a's bytes where key-b's entry belongs.
	dst := st.path("key-b")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("key-b"); ok {
		t.Fatal("foreign-key entry must miss")
	}
	if st.Stats().Corrupt != 1 {
		t.Fatalf("foreign key must count as corruption, got %+v", st.Stats())
	}
}

// TestStoreConcurrentWriters hammers one directory from many Runners
// with private L1s (modelling parallel repro processes); run under
// -race in CI. Every result must agree and the store must end healthy.
func TestStoreConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const writers = 8
	pts := make([]Point, 6)
	for i := range pts {
		pts[i] = Point{Kind: machine.DM, P: machine.Params{Window: 4 + 4*i, MD: 15}}
	}
	results := make([][]*engine.Result, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		r := storeRunner(t, dir, 24)
		wg.Add(1)
		go func(w int, r *Runner) {
			defer wg.Done()
			out := make([]*engine.Result, len(pts))
			for i, pt := range pts {
				res, err := r.Run(pt)
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = res
			}
			results[w] = out
		}(w, r)
	}
	wg.Wait()
	for w := 1; w < writers; w++ {
		if !reflect.DeepEqual(results[0], results[w]) {
			t.Fatalf("writer %d diverged", w)
		}
	}
	// After the dust settles a fresh runner must hit every point.
	r := storeRunner(t, dir, 24)
	for _, pt := range pts {
		if _, err := r.Run(pt); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Sims != 0 || st.StoreHits != int64(len(pts)) {
		t.Fatalf("want %d store hits after concurrent warm-up, got %+v", len(pts), st)
	}
	if st := r.Store.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent writers corrupted the store: %+v", st)
	}
}

// TestStoreClearAndLen covers the maintenance surface used by
// repro -cache-clear.
func TestStoreClearAndLen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		st.Put(fmt.Sprintf("key-%d", i), &engine.Result{Cycles: int64(i)})
	}
	if n := st.Len(); n != 5 {
		t.Fatalf("want 5 entries, got %d", n)
	}
	if err := st.Clear(); err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("want empty store after Clear, got %d", n)
	}
	if _, ok := st.Get("key-0"); ok {
		t.Fatal("cleared entry must miss")
	}
}

// TestStoreSingleFlight: concurrent first requests for one point on one
// Runner must run exactly one simulation.
func TestStoreSingleFlight(t *testing.T) {
	r := storeRunner(t, t.TempDir(), 24)
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(storePoint); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.Sims != 1 {
		t.Fatalf("single-flight broken: %d sims for one point, stats %+v", st.Sims, st)
	}
	if st.L1Hits != callers-1 {
		t.Fatalf("want %d L1 hits, got %+v", callers-1, st)
	}
}

// corruptingFaults damages the first byte of every blob read while
// active — a persistently bad blob, as a failing disk sector would
// present it.
type corruptingFaults struct{ active bool }

func (c *corruptingFaults) OnRead(key string, data []byte) []byte {
	if !c.active || len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	out[0] = 0x00
	return out
}

func (c *corruptingFaults) OnWrite(key string, data []byte) []byte { return data }

// TestStoreQuarantineBreaksHealLoop pins the anti-loop contract: the
// first corrupt read of a key deletes and heals, the second retires the
// key — renamed to *.corrupt, dropped from caching — so a persistently
// bad blob cannot trap the store in heal/re-corrupt forever.
func TestStoreQuarantineBreaksHealLoop(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir, 24)
	if _, err := r.Run(storePoint); err != nil {
		t.Fatal(err)
	}
	key, ok := r.storeKey(storePoint)
	if !ok {
		t.Fatal("store point must be cacheable")
	}
	st := r.Store
	cf := &corruptingFaults{active: true}
	st.Faults = cf

	// First corrupt read: heal path — blob deleted, counted, missed.
	if _, hit := st.Get(key); hit {
		t.Fatal("corrupt blob served as a hit")
	}
	if s := st.Stats(); s.Corrupt != 1 || s.CorruptQuarantined != 0 {
		t.Fatalf("after first corruption: %+v", s)
	}
	if _, err := os.Stat(st.path(key)); !os.IsNotExist(err) {
		t.Fatal("first corruption must delete the blob so the point re-heals")
	}

	// The runner heals it (simulate + reinstall), the blob reads corrupt
	// again: quarantine.
	res, err := r.Suite.RunWith(nil, storePoint.Kind, storePoint.P)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(key, res)
	if _, hit := st.Get(key); hit {
		t.Fatal("corrupt blob served as a hit")
	}
	s := st.Stats()
	if s.Corrupt != 2 || s.CorruptQuarantined != 1 {
		t.Fatalf("after second corruption: %+v", s)
	}
	if _, err := os.Stat(st.path(key) + ".corrupt"); err != nil {
		t.Fatalf("quarantined blob should survive as *.corrupt evidence: %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("quarantined entry still counted: Len=%d", st.Len())
	}

	// Quarantined: writes are dropped, reads miss without touching the
	// corrupt counters — the loop is broken.
	writes := s.Writes
	st.Put(key, res)
	if _, hit := st.Get(key); hit {
		t.Fatal("quarantined key served a hit")
	}
	if s := st.Stats(); s.Writes != writes || s.Corrupt != 2 || s.CorruptQuarantined != 1 {
		t.Fatalf("quarantine must stop the heal/re-corrupt loop: %+v", s)
	}

	// A fresh runner over the same store handle still completes the
	// point — it just simulates uncached every time.
	r2 := NewRunner(storeSuite(t, 24))
	r2.Store = st
	got, err := r2.Run(storePoint)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("degraded (uncached) run differs from the healed result")
	}
	if rs := r2.Stats(); rs.Sims != 1 || rs.StoreHits != 0 {
		t.Fatalf("quarantined point should simulate, not hit: %+v", rs)
	}
}
