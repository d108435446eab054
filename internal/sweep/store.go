// Persistent on-disk result cache. A Store is the L2 behind a Runner's
// in-memory map: simulation results keyed by a canonical hash of
// (engine version, suite fingerprint, machine kind, parameters) survive
// process restarts and are shared between concurrent repro runs.
package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"daesim/internal/engine"
)

// Store is a corruption-tolerant on-disk result cache made of
// append-only segment files. A handle creates one segment on its first
// Put, holds an advisory flock on it while it writes there, and
// appends every entry to it as one JSON line ({key,sum,result} plus a
// newline) in a single write. Segment names sort in creation order.
//
// Get looks a key up in an in-memory index of each key's latest record
// (a later segment wins, then a later offset). The index is built by
// scanning the segments on first use, and every miss tops it up from
// segments that are new or have grown, so a handle sees other handles'
// and other processes' entries on its next miss. A record without its
// trailing newline is a write in progress (or a torn one) and stays
// invisible. Every read re-checks the record: it must parse, carry the
// requested key and match its SHA-256 sum. A damaged record is counted,
// dropped from the index and reported as a miss; the point re-simulates
// and the healed record, appended later to a newer segment, supersedes
// it. A complete line that is no record at all is counted when a scan
// meets it.
//
// A handle holds an fd on every segment it indexed until Close.
//
// Neither Put nor Get touches file metadata: after a handle's first Put
// no call creates a file, and a hit records its access time in memory.
// GC compacts the segments and saves those times (gc.go).
//
// A Store is safe for concurrent use by multiple goroutines and multiple
// processes.
//
// Damage is tolerated but not forgiven forever: a key whose record reads
// corrupt twice in one process is quarantined. The damaged bytes are
// kept as evidence in <sha256(key)>.corrupt next to the segments, and
// the handle stops caching the key (reads miss, writes are dropped), so
// a persistently bad record (failing disk sector, hostile writer)
// cannot trap the store in a heal/re-corrupt loop.
type Store struct {
	dir string

	// Faults, when non-nil, intercepts the raw record bytes of every
	// Get and Put — the hook internal/faultinject's StoreFaults drives
	// in chaos tests. Set before first use; leave nil in production.
	Faults BlobFaults

	hits, misses, writes, corrupt, writeErrs, gcEvictions, quarantines atomic.Int64

	qmu         sync.Mutex
	corruptSeen map[string]int  //daelint:guardedby qmu
	quarantined map[string]bool //daelint:guardedby qmu

	// wmu serializes appends to this handle's segment. It is taken
	// before mu.
	wmu sync.Mutex
	w   *segment //daelint:guardedby wmu

	// mu guards the index. Readers hold it shared while they read a
	// record, so no segment closes under them.
	mu  sync.RWMutex
	idx index //daelint:guardedby mu
}

// BlobFaults intercepts a Store's record I/O for fault injection:
// OnRead sees (and may damage) the bytes of a record just read from
// disk, OnWrite the bytes of a record about to be appended.
// Implementations return the payload to use (possibly the input
// unchanged).
type BlobFaults interface {
	OnRead(key string, data []byte) []byte
	OnWrite(key string, data []byte) []byte
}

// StoreStats is a snapshot of a Store's traffic counters.
type StoreStats struct {
	// Hits and Misses count Get outcomes. Corrupt counts damaged
	// records: the misses they cause (they leave the index on sight),
	// plus complete lines too damaged to name a key, counted once per
	// handle when a scan meets them.
	Hits, Misses, Corrupt int64
	// Writes counts entries installed; WriteErrors counts failed
	// installs (the cache degrades to pass-through, never fails a run).
	Writes, WriteErrors int64
	// GCEvictions counts entries removed by Store.GC passes (damaged
	// records dropped on read are counted under Corrupt instead).
	GCEvictions int64
	// CorruptQuarantined counts keys retired after failing their
	// checksum twice: the damaged bytes are kept as *.corrupt evidence
	// and the key is no longer cached (reads miss, writes are dropped),
	// breaking the heal/re-corrupt loop a persistently bad record would
	// otherwise cause.
	CorruptQuarantined int64
}

// entryFile is the record format, one per line. Key catches cross-key
// collisions and makes records self-describing; Sum is the SHA-256 of
// the canonical Result JSON and catches in-place damage that still
// parses. Atime is the access time (Unix ns) a GC compaction saved; Put
// leaves it out.
type entryFile struct {
	Key    string          `json:"key"`
	Atime  int64           `json:"atime,omitempty"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// segExt names segment files; nothing else in the directory is scanned.
const segExt = ".seg"

// segment is one append-only segment file.
type segment struct {
	name string   // base name; names sort in creation order
	f    *os.File // read fd; for a handle's own segment, its write fd
	// size is the end of the last complete record indexed, mtime the
	// file's mtime (Unix ns) at the last scan: the latest time a record
	// with no saved access time can have been installed.
	size, mtime int64
	// own marks the segment this handle appends to; Put indexes its
	// records, so scans skip it.
	own bool
	// end is the append offset of an own segment (guarded by the
	// Store's wmu, not mu).
	end int64
	// gone is set when a scan finds an own segment unlinked (a Clear
	// from another handle): the next Put starts a new one.
	gone atomic.Bool
	// sealed marks a segment no writer will append to again; only a
	// rescan reads it again.
	sealed bool
	// badTo is the offset up to which complete lines that are no record
	// at all have been counted as corrupt, so a rescan does not count
	// them twice.
	badTo int64
}

// record locates one record in a segment.
type record struct {
	seg *segment
	off int64
	n   int // record length, newline excluded
	// saved is the access time (Unix ns) a compaction stored in the
	// record and extra the length of that field in the record.
	saved int64
	extra int
	// atime is this handle's last access (Unix ns), 0 if none.
	atime atomic.Int64
}

// size is the entry's accounted size: its record as Put writes it,
// newline included, so saving an access time does not change it.
func (e *record) size() int64 { return int64(e.n + 1 - e.extra) }

// read returns the entry's record bytes.
func (e *record) read() ([]byte, error) {
	buf := make([]byte, e.n)
	_, err := e.seg.f.ReadAt(buf, e.off)
	return buf, err
}

// recency is the entry's last known access: this handle's, or the one
// a compaction saved, whichever is later; failing both, the mtime of
// its segment.
func (e *record) recency() int64 {
	if at := max(e.atime.Load(), e.saved); at > 0 {
		return at
	}
	return e.seg.mtime
}

// newer reports whether a record at (s, off) supersedes e's.
func (e *record) newer(s *segment, off int64) bool {
	if e.seg == s {
		return off > e.off
	}
	return s.name > e.seg.name
}

// index maps keys to their latest records across a store's segments.
// Its methods run with the Store's mu held.
type index struct {
	dir   string
	segs  []*segment // sorted by name
	m     map[string]*record
	bytes int64 // sum of record sizes
	// listed is the directory mtime (Unix ns) of the last listing, 0
	// while that mtime is too recent to trust (see topUp).
	listed int64
	// corrupt is the Store's corruption counter, which scans feed.
	corrupt *atomic.Int64
}

// set indexes key at a record, keeping the handle's access time.
func (x *index) set(key string, e *record) {
	if old := x.m[key]; old != nil {
		x.bytes -= old.size()
		e.atime.Store(old.atime.Load())
	}
	x.m[key] = e
	x.bytes += e.size()
}

// drop removes key from the index if it still maps to e.
func (x *index) drop(key string, e *record) {
	if x.m[key] == e {
		delete(x.m, key)
		x.bytes -= e.size()
	}
}

// put indexes a record an own segment just appended at time now.
func (x *index) put(key string, s *segment, off int64, n int, now int64) {
	e := &record{seg: s, off: off, n: n}
	x.set(key, e)
	e.atime.Store(now)
	s.size = max(s.size, off+int64(n)+1)
}

// add inserts a segment in name order.
func (x *index) add(s *segment) {
	i, _ := slices.BinarySearchFunc(x.segs, s.name, func(a *segment, name string) int { return strings.Compare(a.name, name) })
	x.segs = slices.Insert(x.segs, i, s)
}

// reset closes every segment and empties the index. w is the handle's
// own segment, nil if none: once a scan found it gone the index no
// longer holds it, so reset closes it too.
func (x *index) reset(w *segment) {
	if w != nil && w.gone.Load() {
		w.f.Close()
	}
	for _, s := range x.segs {
		s.f.Close()
	}
	x.segs, x.m, x.bytes, x.listed = nil, map[string]*record{}, 0, 0
}

// topUp indexes the segments that are new or have grown since the last
// scan. A segment that vanished (compacted or cleared by another handle)
// forces a full rescan: the keys it held may now live in older
// segments, or in a newer compacted one.
//
// A miss on an aged store costs neither a directory listing nor a look
// at every segment. The directory is listed again only when its mtime
// moved: segments appear and vanish only by create, rename and unlink.
// Sealed segments are not looked at: a writer appends only while it
// holds its segment's flock and never takes it again once it lets go,
// and a segment is empty until its writer holds the lock; so a
// non-empty segment whose lock is free is sealed, and after one more
// scan of its tail it is never checked again.
func (x *index) topUp() error {
	di, err := os.Stat(x.dir)
	if err != nil {
		return err
	}
	rescan := false
	if mt := di.ModTime(); mt.UnixNano() != x.listed {
		if rescan, err = x.list(); err != nil {
			return err
		}
		// Trust the mtime only once it is older than any clock tick a
		// later change could share with it.
		x.listed = 0
		if time.Since(mt) > listSlack { //daelint:nondeterministic-ok gates a directory listing; no Result depends on it
			x.listed = mt.UnixNano()
		}
	}
	var old map[string]*record
	if rescan {
		for _, s := range x.segs {
			s.size = 0
		}
		old, x.m, x.bytes = x.m, map[string]*record{}, 0
	}
	var firstErr error
	for _, s := range x.segs {
		if (s.own || s.sealed) && !rescan {
			continue
		}
		err := x.scan(s)
		if err == nil && !s.own && !s.sealed && locksWork && s.size > 0 && tryLock(s.f) {
			err = x.scan(s)
			s.sealed = err == nil
			unlock(s.f)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if rescan {
		for key, e := range x.m { //daelint:nondeterministic-ok copies each key's access time across the rescan; order-free
			if o := old[key]; o != nil {
				e.atime.Store(o.atime.Load())
			}
		}
	}
	return firstErr
}

// listSlack is how old a directory mtime must be before topUp trusts an
// unchanged one to mean an unchanged listing.
const listSlack = time.Second

// list merges the directory listing into the index's segments: it opens
// the new ones and drops the vanished ones. rescan reports that a
// segment vanished.
func (x *index) list() (rescan bool, err error) {
	des, err := os.ReadDir(x.dir) // sorted by name, like x.segs
	if err != nil {
		return false, err
	}
	var segs, gone []*segment
	i := 0
	for _, d := range des {
		name := d.Name()
		if !strings.HasSuffix(name, segExt) || !d.Type().IsRegular() {
			continue
		}
		for ; i < len(x.segs) && x.segs[i].name < name; i++ {
			gone = append(gone, x.segs[i])
		}
		if i < len(x.segs) && x.segs[i].name == name {
			segs = append(segs, x.segs[i])
			i++
			continue
		}
		f, err := os.Open(filepath.Join(x.dir, name))
		if err != nil {
			continue // unlinked since the listing
		}
		segs = append(segs, &segment{name: name, f: f})
	}
	gone = append(gone, x.segs[i:]...)
	x.segs = segs
	for _, s := range gone {
		if s.own {
			s.gone.Store(true) // Put still holds the fd and closes it
		} else {
			s.f.Close()
		}
	}
	return len(gone) > 0, nil
}

// scan indexes the complete records a segment gained since its last
// scan. An incomplete tail is left for a later scan. A complete line
// that does not begin like a record has no key to charge the damage to,
// so it is counted as corrupt here, once per handle, and skipped.
func (x *index) scan(s *segment) error {
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	s.mtime = fi.ModTime().UnixNano()
	end := fi.Size()
	if end <= s.size {
		return nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, s.size, end-s.size), int(min(end-s.size, 64<<10)))
	off := s.size
	for {
		line, err := r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long := append([]byte(nil), line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = r.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil {
			break // EOF inside a record: not complete yet
		}
		n := len(line) - 1
		if key, saved, extra, ok := recordHead(line[:n]); ok {
			if e := x.m[key]; e == nil || e.newer(s, off) {
				x.set(key, &record{seg: s, off: off, n: n, saved: saved, extra: extra})
			}
		} else if off >= s.badTo {
			x.corrupt.Add(1)
		}
		off += int64(len(line))
	}
	s.size = off
	s.badTo = max(s.badTo, off)
	return nil
}

// recordHead reads the key and any saved access time from the front of
// a record without decoding the rest; Get checks the whole record when
// it reads it. Taking the key from the head attributes damage further
// on to its key, so it is counted and healed. extra is the length of
// the saved-time field. ok is false when the record does not begin like
// one.
func recordHead(rec []byte) (key string, saved int64, extra int, ok bool) {
	rest, found := bytes.CutPrefix(rec, []byte(`{"key":`))
	if !found || len(rest) == 0 || rest[0] != '"' {
		return "", 0, 0, false
	}
	i := 1
	for ; i < len(rest) && rest[i] != '"'; i++ {
		if rest[i] == '\\' {
			i++
		}
	}
	if i >= len(rest) || json.Unmarshal(rest[:i+1], &key) != nil {
		return "", 0, 0, false
	}
	const atField = `,"atime":`
	if digits, found := bytes.CutPrefix(rest[i+1:], []byte(atField)); found {
		if j := bytes.IndexByte(digits, ','); j > 0 {
			if v, err := strconv.ParseInt(string(digits[:j]), 10, 64); err == nil && v > 0 {
				saved, extra = v, len(atField)+j
			}
		}
	}
	return key, saved, extra, true
}

// verifyRecord checks a record read back under key: it must parse,
// carry key and match its checksum. A record in the canonical form Put
// and GC compaction write is checked in place (canonicalRecord); any
// other bytes take the full JSON parse, which decides.
func verifyRecord(key string, data []byte) (entryFile, bool) {
	if ent, ok := canonicalRecord(key, data); ok && json.Valid(ent.Result) {
		return ent, true
	}
	return parseRecord(key, data)
}

// parseRecord is verifyRecord's full parse.
func parseRecord(key string, data []byte) (entryFile, bool) {
	var ent entryFile
	if err := json.Unmarshal(data, &ent); err != nil || ent.Key != key {
		return ent, false
	}
	sum := sha256.Sum256(ent.Result)
	return ent, hex.EncodeToString(sum[:]) == ent.Sum
}

// canonicalRecord is verifyRecord's fast path. It recognizes the bytes
// json.Marshal of an entryFile produces for a key of printable ASCII
// without quotes or backslashes,
//
//	{"key":"<key>",["atime":<n>,]"sum":"<64 lowercase hex>","result":{…}}
//
// and accepts them when the sum matches the result: it compares the key
// in place and hashes the result sub-slice, decoding and copying
// nothing. ok is false for anything else, which leaves the decision to
// the full parse. It does not check that the result is one JSON value;
// the full parse agrees with it exactly when the result is, so callers
// check that, by json.Valid or by decoding the result.
func canonicalRecord(key string, data []byte) (ent entryFile, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"key":"`))
	if !ok || !plainKey(key) || len(rest) <= len(key) || string(rest[:len(key)]) != key || rest[len(key)] != '"' {
		return ent, false
	}
	rest = rest[len(key)+1:]
	if digits, found := bytes.CutPrefix(rest, []byte(`,"atime":`)); found {
		j := 0
		for j < len(digits) && '0' <= digits[j] && digits[j] <= '9' {
			j++
		}
		if j == 0 || digits[0] == '0' {
			return ent, false
		}
		v, err := strconv.ParseInt(string(digits[:j]), 10, 64)
		if err != nil {
			return ent, false
		}
		ent.Atime, rest = v, digits[j:]
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"sum":"`))
	if !ok || len(rest) < 2*sha256.Size {
		return ent, false
	}
	sum := rest[:2*sha256.Size]
	rest, ok = bytes.CutPrefix(rest[len(sum):], []byte(`","result":`))
	if !ok || len(rest) < 3 || rest[0] != '{' || rest[len(rest)-2] != '}' || rest[len(rest)-1] != '}' {
		return ent, false
	}
	result := rest[:len(rest)-1]
	var want [2 * sha256.Size]byte
	got := sha256.Sum256(result)
	hex.Encode(want[:], got[:])
	if !bytes.Equal(sum, want[:]) {
		return ent, false
	}
	ent.Key, ent.Sum, ent.Result = key, string(sum), result
	return ent, true
}

// plainKey reports whether key is printable ASCII without quotes or
// backslashes, which a JSON string holds verbatim.
func plainKey(key string) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// segSeq keeps segment names unique within a process.
var segSeq atomic.Int64

// segmentName returns a fresh segment name. Names sort in creation
// order: fixed-width creation nanoseconds first, then the pid and a
// per-process sequence number for uniqueness.
func segmentName() string {
	now := time.Now().UnixNano() //daelint:nondeterministic-ok segment names order files by creation; no Result depends on them
	return fmt.Sprintf("%016x-%x-%x%s", now, os.Getpid(), segSeq.Add(1), segExt)
}

// samePath reports whether path still names the open file f.
func samePath(f *os.File, path string) bool {
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	pi, err := os.Stat(path)
	return err == nil && os.SameFile(fi, pi)
}

// createSegment creates a segment to append to and takes its write
// lock. A GC pass that claimed the empty file before the lock may have
// unlinked it, so the path must still name the locked file.
func createSegment(dir string) (*segment, error) {
	for tries := 0; tries < 4; tries++ {
		name := segmentName()
		path := filepath.Join(dir, name)
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if tryLock(f) && samePath(f, path) {
			return &segment{name: name, f: f, own: true}, nil
		}
		f.Close()
	}
	return nil, fmt.Errorf("sweep: could not create a segment in %s", dir)
}

// OpenStore opens (creating if needed) a result cache rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening store: %w", err)
	}
	s := &Store{dir: dir}
	s.idx = index{dir: dir, m: map[string]*record{}, corrupt: &s.corrupt}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// evidencePath names the file a quarantined key's damaged bytes go to.
func (s *Store) evidencePath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".corrupt")
}

// Get returns the cached result for key, or ok=false on a miss. Damaged
// records are dropped from the index and reported as misses. A hit
// records the access time in memory, the recency GC's LRU eviction
// orders by.
func (s *Store) Get(key string) (*engine.Result, bool) {
	if s.isQuarantined(key) {
		s.misses.Add(1)
		return nil, false
	}
	e, data, err := s.lookup(key)
	if e == nil {
		s.misses.Add(1)
		return nil, false
	}
	if err != nil {
		return nil, s.evictCorrupt(key, e, data)
	}
	if s.Faults != nil {
		data = s.Faults.OnRead(key, data)
	}
	// Decoding the result checks that it is JSON, which makes the fast
	// path's verdict the full parse's.
	ent, ok := canonicalRecord(key, data)
	if !ok {
		ent, ok = parseRecord(key, data)
	}
	var res engine.Result
	if !ok || json.Unmarshal(ent.Result, &res) != nil {
		return nil, s.evictCorrupt(key, e, data)
	}
	s.hits.Add(1)
	e.atime.Store(time.Now().UnixNano()) //daelint:nondeterministic-ok access time feeds LRU eviction only, never a Result
	return &res, true
}

// lookup finds key's latest record and reads it, topping the index up
// from new and grown segments on a miss. e is nil when no segment holds
// the key.
func (s *Store) lookup(key string) (e *record, data []byte, err error) {
	s.mu.RLock()
	if e = s.idx.m[key]; e != nil {
		data, err = e.read()
	}
	s.mu.RUnlock()
	if e != nil {
		return e, data, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.topUp() // best effort: an unreadable directory is a miss
	if e = s.idx.m[key]; e != nil {
		data, err = e.read()
	}
	return e, data, err
}

// evictCorrupt handles a damaged record and reports the miss. The first
// corrupt read of a key drops it from the index so the point
// re-simulates and heals; a second corrupt read of the same key
// quarantines it instead (damaged bytes kept as evidence, key dropped
// from caching) — healing clearly did not stick, and retrying forever
// would loop heal/re-corrupt.
//
// The heal must land in a segment newer than the damaged record's, or
// a fresh handle (and this one, after a rescan) would still prefer the
// damaged record. A handle writing to an older segment seals it, so its
// next Put starts a new one.
func (s *Store) evictCorrupt(key string, e *record, data []byte) bool {
	s.corrupt.Add(1)
	s.misses.Add(1)
	s.wmu.Lock()
	s.mu.Lock()
	s.idx.drop(key, e)
	if s.w != nil && s.w.name < e.seg.name {
		s.idx.seal(s.w)
		s.w = nil
	}
	s.mu.Unlock()
	s.wmu.Unlock()
	s.qmu.Lock()
	if s.corruptSeen == nil {
		s.corruptSeen = make(map[string]int)
	}
	s.corruptSeen[key]++
	quarantine := s.corruptSeen[key] >= 2
	if quarantine {
		if s.quarantined == nil {
			s.quarantined = make(map[string]bool)
		}
		s.quarantined[key] = true
	}
	s.qmu.Unlock()
	if quarantine {
		s.quarantines.Add(1)
		// Best effort: a failed write still leaves the key quarantined
		// in memory.
		os.WriteFile(s.evidencePath(key), data, 0o644)
	}
	return false
}

// isQuarantined reports whether key has been retired from caching.
func (s *Store) isQuarantined(key string) bool {
	s.qmu.Lock()
	q := s.quarantined[key]
	s.qmu.Unlock()
	return q
}

// Put appends res under key to this handle's segment, creating the
// segment on the handle's first Put. Best effort: a failed append is
// counted and the run proceeds uncached.
func (s *Store) Put(key string, res *engine.Result) {
	if s.isQuarantined(key) {
		return
	}
	body, err := json.Marshal(res)
	if err != nil {
		s.writeErrs.Add(1)
		return
	}
	sum := sha256.Sum256(body)
	data, err := json.Marshal(entryFile{Key: key, Sum: hex.EncodeToString(sum[:]), Result: body})
	if err != nil {
		s.writeErrs.Add(1)
		return
	}
	if s.Faults != nil {
		data = s.Faults.OnWrite(key, data)
	}
	rec := append(data, '\n')

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.w != nil && s.w.gone.Load() {
		s.w.f.Close()
		s.w = nil
	}
	if s.w == nil {
		w, err := createSegment(s.dir)
		if err != nil {
			s.writeErrs.Add(1)
			return
		}
		s.mu.Lock()
		s.idx.add(w)
		s.mu.Unlock()
		s.w = w
	}
	w := s.w
	off := w.end
	n, err := w.f.Write(rec)
	w.end += int64(n)
	if err != nil {
		// A torn record has no newline and stays invisible. Stop
		// appending behind it: the next Put starts a new segment.
		s.mu.Lock()
		s.idx.seal(w)
		s.mu.Unlock()
		s.w = nil
		s.writeErrs.Add(1)
		return
	}
	now := time.Now().UnixNano() //daelint:nondeterministic-ok install time feeds LRU eviction only, never a Result
	s.mu.Lock()
	s.idx.put(key, w, off, len(data), now)
	s.mu.Unlock()
	s.writes.Add(1)
}

// seal ends a handle's appends to w, its own segment: w becomes an
// ordinary sealed segment that GC may claim. The caller drops w, so its
// next Put starts a new segment.
func (x *index) seal(w *segment) {
	if w.gone.Load() {
		w.f.Close() // a scan already dropped it from the index
		return
	}
	w.own, w.sealed = false, true
	unlock(w.f)
}

// Close releases the handle's files: its segment's write lock and the
// fd it holds on every segment. A closed Store stays usable; the next
// call reopens what it needs, as on a fresh handle.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.reset(s.w)
	s.w = nil
	return nil
}

// Clear deletes every entry in the store, keeping the directory. Other
// handles notice on their next miss; until then a handle whose segment
// was deleted keeps the entries it had indexed.
func (s *Store) Clear() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.reset(s.w)
	s.w = nil
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("sweep: clearing store: %w", err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(s.dir, e.Name())); err != nil {
			return fmt.Errorf("sweep: clearing store: %w", err)
		}
	}
	return nil
}

// Len reports the number of entries in the store (diagnostic use).
func (s *Store) Len() int {
	n, _ := s.Usage()
	return n
}

// Usage reports the entry count and total byte size of the store from
// one snapshot of the index, topped up first (diagnostic use; backs the
// store gauges on /metrics). An entry's size is its record as Put
// writes it.
func (s *Store) Usage() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.topUp()
	return len(s.idx.m), s.idx.bytes
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:               s.hits.Load(),
		Misses:             s.misses.Load(),
		Corrupt:            s.corrupt.Load(),
		Writes:             s.writes.Load(),
		WriteErrors:        s.writeErrs.Load(),
		GCEvictions:        s.gcEvictions.Load(),
		CorruptQuarantined: s.quarantines.Load(),
	}
}
