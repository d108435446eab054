// Store compaction / garbage collection. A Store grows without bound as
// sweeps explore new configurations and as handles append to their own
// segments; GC trims it back under size and age bounds, evicting
// least-recently-used entries first, and compacts the survivors into
// one segment. Recency is the access time each handle keeps in memory
// (a hit refreshes it, so LRU order tracks access, not install, time);
// compaction saves it in the rewritten records, so the next pass — in
// any process — orders by it too.
package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// GCPolicy bounds a Store. The zero value of each field means
// "unbounded" in that dimension; a policy with no bound set makes GC a
// pure compaction.
type GCPolicy struct {
	// MaxEntries bounds the number of cached results (0 = unlimited).
	MaxEntries int
	// MaxBytes bounds the total size of the cached entries, each counted
	// as the record Put writes (0 = unlimited).
	MaxBytes int64
	// MaxAge evicts entries not accessed for longer than this
	// (0 = unlimited). Access time is refreshed on every cache hit.
	MaxAge time.Duration
}

// Bounded reports whether the policy constrains the store at all.
func (p GCPolicy) Bounded() bool {
	return p.MaxEntries > 0 || p.MaxBytes > 0 || p.MaxAge > 0
}

// String renders the policy in the ParseGCPolicy syntax.
func (p GCPolicy) String() string {
	var parts []string
	if p.MaxEntries > 0 {
		parts = append(parts, fmt.Sprintf("max-entries=%d", p.MaxEntries))
	}
	if p.MaxBytes > 0 {
		parts = append(parts, fmt.Sprintf("max-bytes=%d", p.MaxBytes))
	}
	if p.MaxAge > 0 {
		parts = append(parts, fmt.Sprintf("max-age=%s", p.MaxAge))
	}
	if len(parts) == 0 {
		return "unbounded"
	}
	return strings.Join(parts, ",")
}

// ParseGCPolicy parses a comma-separated bound list, e.g.
// "max-entries=500,max-bytes=64mb,max-age=168h". max-bytes accepts kb,
// mb and gb suffixes (binary multiples); max-age accepts time.Duration
// syntax. Omitted bounds are unlimited.
func ParseGCPolicy(spec string) (GCPolicy, error) {
	var p GCPolicy
	if strings.TrimSpace(spec) == "" {
		return p, fmt.Errorf("sweep: empty GC policy")
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("sweep: GC policy field %q is not key=value", field)
		}
		switch k {
		case "max-entries":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return p, fmt.Errorf("sweep: bad max-entries %q", v)
			}
			p.MaxEntries = n
		case "max-bytes":
			n, err := parseBytes(v)
			if err != nil {
				return p, err
			}
			p.MaxBytes = n
		case "max-age":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return p, fmt.Errorf("sweep: bad max-age %q", v)
			}
			p.MaxAge = d
		default:
			return p, fmt.Errorf("sweep: unknown GC policy key %q (want max-entries, max-bytes, max-age)", k)
		}
	}
	return p, nil
}

// parseBytes parses a byte count with an optional kb/mb/gb suffix.
func parseBytes(v string) (int64, error) {
	s := strings.ToLower(strings.TrimSpace(v))
	mult := int64(1)
	for _, suf := range []struct {
		tag string
		m   int64
	}{{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30}} {
		if strings.HasSuffix(s, suf.tag) {
			s, mult = strings.TrimSuffix(s, suf.tag), suf.m
			break
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("sweep: bad byte count %q", v)
	}
	return n * mult, nil
}

// GCResult reports one GC pass.
type GCResult struct {
	// Scanned is the number of entries examined.
	Scanned int
	// Evicted counts entries removed and EvictedBytes their total size.
	Evicted      int
	EvictedBytes int64
	// Remaining counts entries kept and RemainingBytes their total size,
	// including entries a failed unlink left behind (see Errors).
	Remaining      int
	RemainingBytes int64
	// Errors counts entries the pass selected for eviction whose
	// segment it could not unlink (permissions, I/O). They remain on
	// disk, counted in Remaining/RemainingBytes, so a pass that reports
	// Errors > 0 may leave the store over its bounds.
	Errors int
}

// String renders the pass for log lines (the repro -cache-gc summary and
// the daemon GC log); TestCacheGCSummary pins the format.
func (r GCResult) String() string {
	s := fmt.Sprintf("scanned %d entries, evicted %d (%d B), kept %d (%d B)",
		r.Scanned, r.Evicted, r.EvictedBytes, r.Remaining, r.RemainingBytes)
	if r.Errors > 0 {
		s += fmt.Sprintf(", %d eviction errors", r.Errors)
	}
	return s
}

// candidate is an entry a GC pass orders, with its recency.
type candidate struct {
	key string
	e   *record
	at  int64
}

// GC compacts the store under the policy's bounds. It claims every
// segment no live handle is writing to: a writer holds an advisory
// flock on its segment, and that segment stays for a later pass. The
// pass orders the entries least recently used first, evicts the
// claimed entries unaccessed for longer than MaxAge, then claimed LRU
// entries until both MaxEntries and MaxBytes hold; entries in
// unclaimed segments count toward the bounds but stay where they are.
// The survivors are rewritten, LRU first and each with its access time
// saved, into one new segment that appears by rename, and the claimed
// segments are unlinked. A reader that already opened one keeps
// reading it through its fd; other handles find the new segment on
// their next miss. A pass with nothing to evict over one claimed
// segment that holds no superseded record and no unsaved access time
// rewrites nothing. Passes serialize on a lock file in the store
// directory, across handles and processes.
func (s *Store) GC(pol GCPolicy) (GCResult, error) {
	lock, err := os.OpenFile(filepath.Join(s.dir, "gc.lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return GCResult{}, fmt.Errorf("sweep: GC lock: %w", err)
	}
	defer lock.Close()
	if err := waitLock(lock); err != nil {
		return GCResult{}, fmt.Errorf("sweep: GC lock: %w", err)
	}
	now := time.Now() //daelint:nondeterministic-ok GC age cutoff prunes cache entries; simulation results are never derived from it
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	res, sealed, err := s.idx.compact(pol, now)
	if sealed {
		s.w = nil
	}
	s.gcEvictions.Add(int64(res.Evicted))
	return res, err
}

// compact runs one GC pass over the index (see Store.GC). sealed
// reports that the handle's own segment was compacted away, so its next
// Put starts a new one.
func (x *index) compact(pol GCPolicy, now time.Time) (res GCResult, sealed bool, err error) {
	if err := x.topUp(); err != nil {
		return res, false, fmt.Errorf("sweep: GC scan: %w", err)
	}
	// The handle's own write lock is on the same fd, so its own segment
	// claims too. A claimed segment's writer may have appended since
	// the top-up before it let go, so its tail is scanned again.
	var claims []*segment
	claimed := map[*segment]bool{}
	for _, sg := range x.segs {
		if tryLock(sg.f) {
			claims = append(claims, sg)
			claimed[sg] = true
			x.scan(sg)
		}
	}
	defer func() {
		for _, sg := range claims {
			if slices.Contains(x.segs, sg) && !sg.own {
				unlock(sg.f)
			}
		}
	}()

	all := make([]candidate, 0, len(x.m))
	live := map[*segment]int64{}
	for key, e := range x.m { //daelint:nondeterministic-ok candidates are sorted below
		all = append(all, candidate{key, e, e.recency()})
		live[e.seg] += int64(e.n + 1)
	}
	res.Scanned = len(all)
	// Oldest access first; position breaks ties so eviction order is
	// deterministic.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		switch {
		case a.at != b.at:
			return a.at < b.at
		case a.e.seg != b.e.seg:
			return a.e.seg.name < b.e.seg.name
		}
		return a.e.off < b.e.off
	})
	cutoff := now.Add(-pol.MaxAge).UnixNano()
	kept, total := len(all), x.bytes
	var keep, evict []candidate
	for _, c := range all {
		if !claimed[c.e.seg] {
			continue
		}
		over := (pol.MaxEntries > 0 && kept > pol.MaxEntries) || (pol.MaxBytes > 0 && total > pol.MaxBytes)
		if over || (pol.MaxAge > 0 && c.at < cutoff) {
			evict = append(evict, c)
			kept--
			total -= c.e.size()
		} else {
			keep = append(keep, c)
		}
	}
	// Rewrite unless the claimed records are already one segment that
	// holds nothing superseded and every access time it could save.
	stale := len(claims) > 1
	for _, sg := range claims {
		stale = stale || live[sg] != sg.size
	}
	for _, c := range keep {
		stale = stale || c.e.atime.Load() > c.e.saved
	}
	if len(evict) == 0 && !stale {
		res.Remaining, res.RemainingBytes = res.Scanned, x.bytes
		return res, false, nil
	}

	if len(keep) > 0 {
		sg, placed, err := x.rewrite(keep)
		if err != nil {
			res.Remaining, res.RemainingBytes = res.Scanned, x.bytes
			return res, false, fmt.Errorf("sweep: GC compaction: %w", err)
		}
		x.add(sg)
		for i, c := range keep {
			if placed[i] == nil {
				evict = append(evict, c) // no longer verifies
				continue
			}
			x.set(c.key, placed[i])
		}
	}
	// Every record in a claimed segment is now moved, evicted or
	// superseded.
	failed := map[*segment]bool{}
	for _, sg := range claims {
		if err := os.Remove(filepath.Join(x.dir, sg.name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			failed[sg] = true
			continue
		}
		x.segs = slices.DeleteFunc(x.segs, func(s *segment) bool { return s == sg })
		sg.f.Close()
		sealed = sealed || sg.own
	}
	for _, c := range evict {
		if failed[c.e.seg] {
			res.Errors++ // still on disk, still indexed
			continue
		}
		x.drop(c.key, c.e)
		res.Evicted++
		res.EvictedBytes += c.e.size()
	}
	res.Remaining, res.RemainingBytes = res.Scanned-res.Evicted, x.bytes
	return res, sealed, nil
}

// rewrite writes the survivors' records, LRU first and each with its
// access time saved, into a new segment that appears by rename. placed
// holds each survivor's new entry, or nil for a record that no longer
// verifies.
func (x *index) rewrite(keep []candidate) (sg *segment, placed []*record, err error) {
	tmp, err := os.CreateTemp(x.dir, ".compact-*")
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*segment, []*record, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, nil, err
	}
	bw := bufio.NewWriter(tmp)
	placed = make([]*record, len(keep))
	var off int64
	for i, c := range keep {
		data, rerr := c.e.read()
		ent, ok := verifyRecord(c.key, data)
		if rerr != nil || !ok {
			continue
		}
		ent.Atime = c.at
		rec, err := json.Marshal(ent)
		if err != nil {
			return fail(err)
		}
		_, saved, extra, _ := recordHead(rec)
		placed[i] = &record{off: off, n: len(rec), saved: saved, extra: extra}
		bw.Write(rec)
		bw.WriteByte('\n')
		off += int64(len(rec) + 1)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	fi, err := tmp.Stat()
	if err != nil {
		return fail(err)
	}
	name := segmentName()
	if err := os.Rename(tmp.Name(), filepath.Join(x.dir, name)); err != nil {
		return fail(err)
	}
	sg = &segment{name: name, f: tmp, size: off, mtime: fi.ModTime().UnixNano()}
	for _, e := range placed {
		if e != nil {
			e.seg = sg
		}
	}
	return sg, placed, nil
}
