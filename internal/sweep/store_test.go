package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"daesim/internal/engine"
	"daesim/internal/kernel"
	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/partition"
)

// storeSuite builds a small deterministic suite; n varies the trace so
// tests can model a workload recalibration (different content, same
// construction path).
func storeSuite(t testing.TB, n int) *machine.Suite {
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
	k := r.storeKey(storePoint)
	if !strings.Contains(k, engine.Version) {
		t.Errorf("key %q does not embed engine.Version %q", k, engine.Version)
	}
	if !strings.Contains(k, r.Suite.Fingerprint()) {
		t.Errorf("key %q does not embed the suite fingerprint", k)
	}
	p2 := storePoint
	p2.P.MD++
	if r.storeKey(p2) == k {
		t.Error("distinct params must produce distinct keys")
	}
	memPt := storePoint
	memPt.P.Mem = memsys.DefaultCacheSpec()
	if r.storeKey(memPt) == k {
		t.Error("a memory model must change the key")
	}
}

// TestStoreKeyGolden pins the bytes of the key of an all-fields point
// and of a zero one: every existing store is read by these keys, so an
// encoding change must be deliberate (and is a cache flush).
func TestStoreKeyGolden(t *testing.T) {
	mem, err := memsys.ParseSpec("cache:64x4@2,512x8@12")
	if err != nil {
		t.Fatal(err)
	}
	r := storeRunner(t, t.TempDir(), 24)
	prefix := engine.Version + "|" + r.Suite.Fingerprint() + "|"
	for _, c := range []struct {
		pt   Point
		want string
	}{
		{Point{Kind: machine.DM, P: machine.Params{
			Window: 1, MD: 4, CopyLat: 6, AUWidth: 7, DUWidth: 8, Width: 9, MemQueue: -1,
			Mem: mem, CollectESW: true, HoldSendSlots: true, Retire: machine.RetireAtComplete,
		}}, "k=DM w=1 md=4 cp=6 aw=7 dw=8 sw=9 mq=-1 mem=cache:64x4@2,512x8@12 esw=true hold=true ret=at-complete"},
		{Point{Kind: machine.SWSM}, "k=SWSM w=0 md=0 cp=0 aw=0 dw=0 sw=0 mq=0 mem=none esw=false hold=false ret=in-order"},
	} {
		if pk, ok := c.pt.P.CacheKey(c.pt.Kind); pk != c.want || !ok {
			t.Errorf("CacheKey = %q, %v; want %q, true", pk, ok, c.want)
		}
		if k := r.storeKey(c.pt); k != prefix+c.want {
			t.Errorf("storeKey = %q, want %q", k, prefix+c.want)
		}
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
	key := r1.storeKey(storePoint)
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

// segPaths lists the segment files in a store directory, oldest first.
func segPaths(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// rewriteRecord replaces the one record of a single-record segment with
// damage(record), newline kept: the record is complete but damaged.
func rewriteRecord(t *testing.T, path string, damage func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(data, []byte("\n")) != 1 || data[len(data)-1] != '\n' {
		t.Fatalf("want one complete record in %s, got %q", path, data)
	}
	out := append(damage(data[:len(data)-1]), '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipDigit flips a digit inside a record's payload without breaking
// JSON: only the checksum can catch it.
func flipDigit(t *testing.T, d []byte) []byte {
	s := string(d)
	i := strings.Index(s, `"result":`)
	for j := i; j < len(s); j++ {
		if s[j] >= '1' && s[j] <= '8' {
			return []byte(s[:j] + "9" + s[j+1:])
		}
	}
	t.Fatal("no digit to flip")
	return d
}

// TestStoreCorruptedEntryRecovery: damaged records — torn mid-payload
// (and sealed by a later newline), bit-flipped payloads, records emptied
// to a bare newline or to their key alone — are detected, counted,
// dropped and re-simulated; the healed record, appended to a newer
// segment, serves the next fresh handle.
func TestStoreCorruptedEntryRecovery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(rec []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bitflip", func(d []byte) []byte { return flipDigit(t, d) }},
		{"emptied", func(d []byte) []byte { return nil }},
		{"key-only", func(d []byte) []byte {
			head, _, _ := bytes.Cut(d, []byte(`,"sum":`))
			return append(head, '}')
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r1 := storeRunner(t, dir, 24)
			want, err := r1.Run(storePoint)
			if err != nil {
				t.Fatal(err)
			}
			paths := segPaths(t, dir)
			if len(paths) != 1 {
				t.Fatalf("want 1 segment, got %v", paths)
			}
			rewriteRecord(t, paths[0], tc.corrupt)

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
			// The heal must install a clean record.
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

// TestStoreJunkLineCountedOnce: a complete line that is no record at
// all counts as corrupt once per handle, not again on a rescan.
func TestStoreJunkLineCountedOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Put("k", &engine.Result{Cycles: 1})
	w.Close()
	seg := segPaths(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append([]byte("\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	other, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	other.Put("other", &engine.Result{Cycles: 2})
	other.Close()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := st.Get("k"); !ok || res.Cycles != 1 {
		t.Fatal("the record after the junk line must hit")
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Fatalf("the junk line must count as corrupt once: %+v", s)
	}
	if err := os.Remove(segPaths(t, dir)[1]); err != nil {
		t.Fatal(err)
	}
	st.Get("absent") // rescans the junk line's segment
	if res, ok := st.Get("k"); !ok || res.Cycles != 1 {
		t.Fatal("the record after the junk line must still hit")
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Fatalf("a rescan must not count the junk line again: %+v", s)
	}
}

// TestStoreForeignKeyEntry: a record whose head names one key but whose
// body carries another (a spliced or hostile record) reads as a miss
// and counts as corruption.
func TestStoreForeignKeyEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("key-a", &engine.Result{Cycles: 1})
	rewriteRecord(t, segPaths(t, dir)[0], func(d []byte) []byte {
		return append([]byte(`{"key":"key-b",`), d[1:]...)
	})
	fresh, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get("key-b"); ok {
		t.Fatal("foreign-key entry must miss")
	}
	if fresh.Stats().Corrupt != 1 {
		t.Fatalf("foreign key must count as corruption, got %+v", fresh.Stats())
	}
}

// TestStoreTornTailInvisible: a record without its trailing newline is
// a write in progress. It stays invisible, and is not counted as
// corrupt, until the rest of it lands; the next miss then finds it.
func TestStoreTornTailInvisible(t *testing.T) {
	dir := t.TempDir()
	src, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src.Put("key-a", &engine.Result{Cycles: 1})
	src.Put("key-b", &engine.Result{Cycles: 2})
	segs := segPaths(t, src.Dir())
	if len(segs) != 1 {
		t.Fatalf("want both records in one segment, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.IndexByte(data, '\n') + 1 + 40 // key-a whole, key-b's head only
	// A writer in the middle of its second record: it holds the
	// segment's lock, as Put's writer does.
	path := filepath.Join(dir, "0000000000000001-1-1"+segExt)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !tryLock(f) {
		t.Fatal("cannot lock the new segment")
	}
	if _, err := f.Write(data[:cut]); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := st.Get("key-a"); !ok || res.Cycles != 1 {
		t.Fatal("the complete record must hit")
	}
	if _, ok := st.Get("key-b"); ok {
		t.Fatal("a record without its newline must stay invisible")
	}
	if s := st.Stats(); s.Corrupt != 0 {
		t.Fatalf("an incomplete tail is not corruption: %+v", s)
	}
	if _, err := f.Write(data[cut:]); err != nil {
		t.Fatal(err)
	}
	if res, ok := st.Get("key-b"); !ok || res.Cycles != 2 {
		t.Fatal("the completed record must hit on the next miss")
	}
	if s := st.Stats(); s.Corrupt != 0 {
		t.Fatalf("completing a record is not corruption: %+v", s)
	}
}

// TestStoreSecondHandleSeesLaterPuts: a handle that indexed the store
// picks up another handle's later appends on its next miss.
func TestStoreSecondHandleSeesLaterPuts(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Put("key-1", &engine.Result{Cycles: 1})
	if res, ok := r.Get("key-1"); !ok || res.Cycles != 1 {
		t.Fatal("second handle must see the first Put")
	}
	w.Put("key-2", &engine.Result{Cycles: 2}) // grows the indexed segment
	if res, ok := r.Get("key-2"); !ok || res.Cycles != 2 {
		t.Fatal("second handle must see a later Put on its next miss")
	}
	if n := len(segPaths(t, dir)); n != 1 {
		t.Fatalf("one writer must leave one segment, got %d", n)
	}
}

// TestStoreListingGate: a miss lists the directory only when its mtime
// moved, and never trusts an mtime recent enough that a later change
// could share its clock tick.
func TestStoreListingGate(t *testing.T) {
	put := func(dir, key string) {
		w, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		w.Put(key, &engine.Result{Cycles: 1})
		w.Close()
	}
	setMtime := func(dir string, at time.Time) {
		if err := os.Chtimes(dir, at, at); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("aged", func(t *testing.T) {
		dir := t.TempDir()
		put(dir, "k1")
		setMtime(dir, time.Now().Add(-time.Hour)) //daelint:nondeterministic-ok fabricates directory mtimes; no Result depends on it
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get("k1"); !ok {
			t.Fatal("k1 must hit")
		}
		put(dir, "k2") // a new segment moves the mtime
		if _, ok := st.Get("k2"); !ok {
			t.Fatal("a new segment must be listed once the mtime moved")
		}
	})
	t.Run("same-tick", func(t *testing.T) {
		dir := t.TempDir()
		put(dir, "k1")
		now := time.Now() //daelint:nondeterministic-ok fabricates directory mtimes; no Result depends on it
		setMtime(dir, now)
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get("k1"); !ok {
			t.Fatal("k1 must hit")
		}
		put(dir, "k2")
		setMtime(dir, now) // a coarse clock gave both changes one mtime
		if _, ok := st.Get("k2"); !ok {
			t.Fatal("a recent mtime must not stop the listing")
		}
	})
}

// TestStorePrefersHealedRecord: when an older segment holds a corrupt
// record and a newer one its healed copy, a fresh handle serves the
// healed one without counting corruption.
func TestStorePrefersHealedRecord(t *testing.T) {
	t.Run("healer-opens-later", testHealerOpensLater)
	t.Run("healer-opened-first", testHealerOpenedFirst)
}

func testHealerOpensLater(t *testing.T) {
	dir := t.TempDir()
	first, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &engine.Result{Cycles: 42}
	first.Put("k", want)
	rewriteRecord(t, segPaths(t, dir)[0], func(d []byte) []byte { return flipDigit(t, d) })
	healer, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := healer.Get("k"); ok {
		t.Fatal("corrupt record served as a hit")
	}
	healer.Put("k", want)
	if n := len(segPaths(t, dir)); n != 2 {
		t.Fatalf("the heal must land in the healer's own segment: %d segments", n)
	}
	fresh, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := fresh.Get("k")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh handle must serve the healed record, got %+v, %v", got, ok)
	}
	if s := fresh.Stats(); s.Corrupt != 0 {
		t.Fatalf("fresh handle read the older corrupt record: %+v", s)
	}
}

// testHealerOpenedFirst: a healer whose own segment is older than the
// damaged record's writes the heal to a new segment, so a fresh handle
// and the healer itself after a rescan both serve the heal.
func testHealerOpenedFirst(t *testing.T) {
	dir := t.TempDir()
	healer, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	healer.Put("other", &engine.Result{Cycles: 1}) // the healer's segment, oldest
	writer, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &engine.Result{Cycles: 42}
	writer.Put("k", want)
	writer.Close()
	segs := segPaths(t, dir)
	if len(segs) != 2 {
		t.Fatalf("want the healer's and the writer's segments, got %v", segs)
	}
	rewriteRecord(t, segs[1], func(d []byte) []byte { return flipDigit(t, d) })
	if _, ok := healer.Get("k"); ok {
		t.Fatal("corrupt record served as a hit")
	}
	healer.Put("k", want)
	fresh, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := fresh.Get("k")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh handle must serve the healed record, got %+v, %v", got, ok)
	}
	if s := fresh.Stats(); s.Corrupt != 0 {
		t.Fatalf("fresh handle read the damaged record in the newer segment: %+v", s)
	}
	// Unlinking the healer's first segment forces it to rescan on its
	// next miss; it must still serve the heal, not re-read the damage.
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	healer.Get("absent")
	if got, ok := healer.Get("k"); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("healer must serve its heal after a rescan, got %+v, %v", got, ok)
	}
	if s := healer.Stats(); s.Corrupt != 1 || s.CorruptQuarantined != 0 {
		t.Fatalf("healer re-read the damaged record after a rescan: %+v", s)
	}
}

// TestStoreFollowsOtherHandles: a handle whose indexed segments another
// handle compacted away rescans on its next miss, and a writer whose
// segment another handle cleared starts a new one once a miss shows it
// the segment is gone.
func TestStoreFollowsOtherHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Put("k1", &engine.Result{Cycles: 1})
	a.Put("k2", &engine.Result{Cycles: 2})
	if _, ok := b.Get("k1"); !ok {
		t.Fatal("b must see a's entry")
	}
	if res, err := a.GC(GCPolicy{MaxEntries: 1}); err != nil || res.Evicted != 1 {
		t.Fatalf("a's pass must evict k1: %+v, %v", res, err)
	}
	if _, ok := b.Get("k3"); ok {
		t.Fatal("k3 was never written")
	}
	if n := b.Len(); n != 1 {
		t.Fatalf("after the rescan b must index only the compacted k2, got %d entries", n)
	}
	if res, ok := b.Get("k2"); !ok || res.Cycles != 2 {
		t.Fatal("b must read k2 from the compacted segment")
	}

	a.Put("k4", &engine.Result{Cycles: 4})
	if err := b.Clear(); err != nil {
		t.Fatal(err)
	}
	a.Get("k5") // a miss: a finds its segment gone
	a.Put("k6", &engine.Result{Cycles: 6})
	if res, ok := b.Get("k6"); !ok || res.Cycles != 6 {
		t.Fatal("a's Put after the clear must land in a new, visible segment")
	}
	if s := a.Stats(); s.WriteErrors != 0 {
		t.Fatalf("a clear elsewhere is not a write error: %+v", s)
	}
}

// dirState snapshots every file in dir with its size and mtime.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range des {
		info, err := d.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[d.Name()] = fmt.Sprintf("%d %d", info.Size(), info.ModTime().UnixNano())
	}
	return out
}

// TestStoreFileDiscipline pins the layout's cost model: a handle's first
// Put creates its segment and no later Put creates a file, and Get — hit
// or miss, same handle or fresh — writes no file or file metadata.
func TestStoreFileDiscipline(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("key-0"); ok {
		t.Fatal("empty store hit")
	}
	if n := len(dirState(t, dir)); n != 0 {
		t.Fatalf("a handle that only reads must create no file, found %d", n)
	}
	st.Put("key-0", &engine.Result{Cycles: 0})
	files := dirState(t, dir)
	for i := 1; i < 20; i++ {
		st.Put(fmt.Sprintf("key-%d", i), &engine.Result{Cycles: int64(i)})
	}
	if got := dirState(t, dir); len(got) != len(files) || len(got) != 1 {
		t.Fatalf("Puts after the first created files: before %v, after %v", files, got)
	}
	before := dirState(t, dir)
	fresh, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Store{st, fresh} {
		for i := 0; i < 25; i++ {
			h.Get(fmt.Sprintf("key-%d", i))
		}
	}
	if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("Get touched the store's files:\nbefore %v\nafter  %v", before, after)
	}
}

// segmentSealed reports whether st takes the segment at path for sealed.
func segmentSealed(t *testing.T, st *Store, path string) bool {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sg := range st.idx.segs {
		if sg.name == filepath.Base(path) {
			return sg.sealed
		}
	}
	t.Fatalf("%s is not indexed", path)
	return false
}

// TestStoreClose: Close releases the handle's segment. Readers then take
// it for sealed and stop checking it for growth, and another handle's GC
// claims it; the closed handle stays usable.
func TestStoreClose(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Put("k1", &engine.Result{Cycles: 1})
	if _, ok := r.Get("k1"); !ok {
		t.Fatal("r must see w's entry")
	}
	seg := segPaths(t, dir)[0]
	if segmentSealed(t, r, seg) {
		t.Fatal("a live writer's segment must not be taken for sealed")
	}
	if _, err := r.GC(GCPolicy{}); err != nil {
		t.Fatal(err)
	}
	if got := segPaths(t, dir); len(got) != 1 || got[0] != seg {
		t.Fatalf("GC must spare a live writer's segment, got %v", got)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r.Get("absent")
	if !segmentSealed(t, r, seg) {
		t.Fatal("a closed writer's segment must be taken for sealed")
	}
	if _, err := r.GC(GCPolicy{}); err != nil {
		t.Fatal(err)
	}
	if got := segPaths(t, dir); len(got) != 1 || got[0] == seg {
		t.Fatalf("GC must compact a closed writer's segment, got %v", got)
	}

	if res, ok := w.Get("k1"); !ok || res.Cycles != 1 {
		t.Fatal("a closed handle must reopen the store on its next call")
	}
	w.Put("k2", &engine.Result{Cycles: 2})
	if res, ok := r.Get("k2"); !ok || res.Cycles != 2 {
		t.Fatal("a closed handle's later Put must be visible")
	}
	if s := w.Stats(); s.WriteErrors != 0 || s.Corrupt != 0 {
		t.Fatalf("reopening after Close: %+v", s)
	}
}

// BenchmarkStoreGetMiss measures a miss against a store of sealed
// segments from earlier writers: the top-up every point a run has to
// simulate pays on an aged shared cache.
func BenchmarkStoreGetMiss(b *testing.B) {
	for _, segs := range []int{1, 40} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < segs; i++ {
				w, err := OpenStore(dir)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 50; j++ {
					w.Put(fmt.Sprintf("key-%d-%d", i, j), &engine.Result{Cycles: int64(j)})
				}
				w.Close()
			}
			aged := time.Now().Add(-time.Hour) //daelint:nondeterministic-ok backdates the store directory; no Result depends on it
			if err := os.Chtimes(dir, aged, aged); err != nil {
				b.Fatal(err)
			}
			st, err := OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			st.Get("absent") // builds the index
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Get("absent")
			}
		})
	}
}

// BenchmarkStoreGetHit measures a hit on a warm store: the record read,
// its key and checksum check and the Result decode every point of a
// warm repro pass pays.
func BenchmarkStoreGetHit(b *testing.B) {
	res, err := storeSuite(b, 24).Run(storePoint.Kind, storePoint.P)
	if err != nil {
		b.Fatal(err)
	}
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const keys = 64
	for i := 0; i < keys; i++ {
		st.Put(fmt.Sprintf("key-%d", i), res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(fmt.Sprintf("key-%d", i%keys)); !ok {
			b.Fatal("miss")
		}
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

// corruptingFaults damages the first byte of every record read while
// active — a persistently bad record, as a failing disk sector would
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
// first corrupt read of a key drops it and heals, the second retires the
// key — damaged bytes kept as *.corrupt evidence, key dropped from
// caching — so a persistently bad record cannot trap the store in
// heal/re-corrupt forever.
func TestStoreQuarantineBreaksHealLoop(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir, 24)
	if _, err := r.Run(storePoint); err != nil {
		t.Fatal(err)
	}
	key := r.storeKey(storePoint)
	st := r.Store
	cf := &corruptingFaults{active: true}
	st.Faults = cf

	// First corrupt read: heal path — record dropped, counted, missed.
	if _, hit := st.Get(key); hit {
		t.Fatal("corrupt record served as a hit")
	}
	if s := st.Stats(); s.Corrupt != 1 || s.CorruptQuarantined != 0 {
		t.Fatalf("after first corruption: %+v", s)
	}
	if _, hit := st.Get(key); hit || st.Stats().Corrupt != 1 || st.Len() != 0 {
		t.Fatalf("first corruption must drop the record so the point re-heals: %+v, Len=%d", st.Stats(), st.Len())
	}

	// The runner heals it (simulate + reinstall), the record reads
	// corrupt again: quarantine.
	res, err := r.Suite.RunWith(nil, storePoint.Kind, storePoint.P)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(key, res)
	if _, hit := st.Get(key); hit {
		t.Fatal("corrupt record served as a hit")
	}
	s := st.Stats()
	if s.Corrupt != 2 || s.CorruptQuarantined != 1 {
		t.Fatalf("after second corruption: %+v", s)
	}
	evidence, err := os.ReadFile(st.evidencePath(key))
	if err != nil || len(evidence) == 0 || evidence[0] != 0x00 {
		t.Fatalf("quarantined record's damaged bytes should survive as *.corrupt evidence: %q, %v", evidence, err)
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

// FuzzStoreSegment feeds arbitrary bytes to a store as one segment
// file: torn tails, duplicate keys, head/body key mismatches, bit flips.
// Nothing may panic, and every hit — before and after a compaction —
// must be backed by a complete line of the input that carries the key
// and matches its checksum.
func FuzzStoreSegment(f *testing.F) {
	rec := func(key string, cycles int64) []byte {
		body, _ := json.Marshal(&engine.Result{Cycles: cycles, Ops: 3})
		sum := sha256.Sum256(body)
		data, _ := json.Marshal(entryFile{Key: key, Sum: hex.EncodeToString(sum[:]), Result: body})
		return data
	}
	lines := func(recs ...[]byte) []byte { return append(bytes.Join(recs, []byte("\n")), '\n') }
	good := rec("k", 7)
	f.Add(lines(good), "k")
	f.Add(good, "k")                                              // torn tail
	f.Add(append(lines(good), rec("k", 8)[:30]...), "k")          // complete, then torn
	f.Add(lines(good, rec("k", 8)), "k")                          // duplicate key, later wins
	f.Add(lines(rec("j", 1), good, rec("j", 2)), "j")             // interleaved keys
	f.Add(lines(append([]byte(`{"key":"k",`), good[1:]...)), "k") // head/body mismatch
	f.Add(lines(bytes.Replace(good, []byte("7"), []byte("9"), 1)), "k")
	f.Add(lines(bytes.Replace(good, []byte(`"sum"`), []byte(`"atime":12,"sum"`), 1)), "k")
	f.Add(lines([]byte(`{"key":"k\"x","sum":"","result":{}}`)), `k"x`)
	f.Add([]byte("\n\n{\n{\"key\":\n{\"key\":\"\\"), "")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000001-1-1"+segExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		complete := bytes.Split(data, []byte("\n"))
		complete = complete[:len(complete)-1]
		check := func(res *engine.Result, ok bool) {
			if !ok {
				return
			}
			got, _ := json.Marshal(res)
			for _, line := range complete {
				ent, ok := verifyRecord(key, line)
				var want engine.Result
				if ok && json.Unmarshal(ent.Result, &want) == nil {
					if b, _ := json.Marshal(&want); bytes.Equal(b, got) {
						return
					}
				}
			}
			t.Fatalf("hit for %q with %s is backed by no complete, verified record", key, got)
		}
		check(st.Get(key))
		st.Usage()
		if _, err := st.GC(GCPolicy{MaxEntries: 2}); err != nil {
			t.Fatal(err)
		}
		check(st.Get(key))
	})
}

// TestCanonicalRecordsTakeFastPath: what Put writes, and what a GC
// compaction writes with the access time saved, is the canonical form,
// so reading it back never takes the full parse.
func TestCanonicalRecordsTakeFastPath(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Put("k", &engine.Result{Cycles: 5, Ops: 2})
	check := func(stage string, saved bool) {
		t.Helper()
		paths := segPaths(t, dir)
		if len(paths) != 1 {
			t.Fatalf("%s: %d segments, want 1", stage, len(paths))
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		ent, ok := canonicalRecord("k", bytes.TrimSuffix(data, []byte("\n")))
		if !ok || !json.Valid(ent.Result) || (ent.Atime > 0) != saved {
			t.Fatalf("%s: fast path rejects %q (atime %d)", stage, data, ent.Atime)
		}
	}
	check("put", false)
	if _, err := st.GC(GCPolicy{}); err != nil {
		t.Fatal(err)
	}
	check("compacted", true)
	if res, ok := st.Get("k"); !ok || res.Cycles != 5 {
		t.Fatal("the compacted record must read back")
	}
}

// FuzzVerifyRecord: for any bytes and key, the canonical fast path
// accepts only what the full JSON parse accepts, and the two agree on
// every field. Get relies on the same: a record the fast path frames
// and checksums is the full parse's exactly when its result is one
// JSON value, which Get's decode checks.
func FuzzVerifyRecord(f *testing.F) {
	body, _ := json.Marshal(&engine.Result{Cycles: 7, Ops: 3, Cores: []engine.CoreStats{{IssueHist: []int64{1, 2}}}})
	rec := func(ent entryFile) []byte {
		data, _ := json.Marshal(ent)
		return data
	}
	sumOf := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	put := rec(entryFile{Key: "k", Sum: sumOf(body), Result: body})
	f.Add(put, "k")
	f.Add(rec(entryFile{Key: "k", Atime: 1700000000000000000, Sum: sumOf(body), Result: body}), "k") // compacted
	f.Add([]byte(`{"sum":"`+sumOf(body)+`","key":"k","result":`+string(body)+`}`), "k")              // reordered
	f.Add(rec(entryFile{Key: `a<b"c\d`, Sum: sumOf(body), Result: body}), `a<b"c\d`)                 // escaped key
	f.Add(bytes.Replace(put, []byte(`"key":"k"`), []byte(`"key": "k"`), 1), "k")                     // inner whitespace
	spaced := []byte(`{"cycles": 7}`)
	f.Add([]byte(`{"key":"k","sum":"`+sumOf(spaced)+`","result":`+string(spaced)+`}`), "k") // whitespace in the result
	flip := func(at int) []byte {
		b := bytes.Clone(put)
		b[at] ^= 1
		return b
	}
	f.Add(flip(bytes.Index(put, []byte(`"sum":"`))+10), "k")   // flipped byte in the sum
	f.Add(flip(bytes.Index(put, []byte(`"result":`))+12), "k") // flipped byte in the result
	f.Add([]byte(strings.Replace(string(put), sumOf(body), strings.ToUpper(sumOf(body)), 1)), "k")
	joined := []byte(`{"a":1},"b":{}`) // its sum matches, but it is no one value
	f.Add([]byte(`{"key":"k","sum":"`+sumOf(joined)+`","result":`+string(joined)+`}`), "k")
	f.Add(put, "j")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		full, fullOK := parseRecord(key, data)
		fast, fastOK := canonicalRecord(key, data)
		if !fastOK {
			return
		}
		if valid := json.Valid(fast.Result); valid != fullOK {
			t.Fatalf("fast path frames %q (result valid JSON: %v), full parse accepts: %v", data, valid, fullOK)
		}
		if !fullOK {
			return
		}
		if fast.Key != full.Key || fast.Atime != full.Atime || fast.Sum != full.Sum || !bytes.Equal(fast.Result, full.Result) {
			t.Fatalf("fast path %+v, full parse %+v", fast, full)
		}
		if got, ok := verifyRecord(key, data); !ok || !reflect.DeepEqual(got, fast) {
			t.Fatalf("verifyRecord = %+v, %v; want the fast path's %+v", got, ok, fast)
		}
	})
}
