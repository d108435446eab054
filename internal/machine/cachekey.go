package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"

	"daesim/internal/lower"
	"daesim/internal/partition"
)

// CacheKey returns a canonical, process-stable encoding of (kind, p) for
// persistent result caches. Every point is cacheable, memory models
// included: Params.Mem is a value, written in its canonical text form.
// ok is always true; the second result remains only because perfbench
// still reads it, and goes with the benchmark's next revision.
//
// The encoding writes every Params field explicitly, raw (unresolved),
// except the retirement policy, which is recorded resolved so a change
// to the machines' default accounting changes the key.
// TestCacheKeyCoversAllParams pins the field count: adding a Params field
// without extending this encoding is a build-time-visible bug, not a
// silent stale-cache hazard.
func (p Params) CacheKey(kind Kind) (key string, ok bool) {
	var buf [160]byte
	return string(p.AppendCacheKey(buf[:0], kind)), true
}

// AppendCacheKey appends CacheKey's encoding of (kind, p) to dst, so a
// caller can build a longer key in one buffer.
func (p Params) AppendCacheKey(dst []byte, kind Kind) []byte {
	retire := RetireAtComplete
	if p.retireInOrder() {
		retire = RetireInOrder
	}
	dst = append(append(dst, "k="...), kind.String()...)
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{" w=", p.Window}, {" auw=", p.AUWindow}, {" duw=", p.DUWindow},
		{" md=", p.MD}, {" fp=", p.FPLat}, {" cp=", p.CopyLat},
		{" aw=", p.AUWidth}, {" dw=", p.DUWidth}, {" sw=", p.Width},
		{" dpw=", p.DispatchWidth}, {" mq=", p.MemQueue},
	} {
		dst = strconv.AppendInt(append(dst, f.name...), int64(f.v), 10)
	}
	dst = append(append(dst, " mem="...), p.Mem.String()...)
	dst = strconv.AppendBool(append(dst, " esw="...), p.CollectESW)
	dst = strconv.AppendBool(append(dst, " hold="...), p.HoldSendSlots)
	return append(append(dst, " ret="...), retire.String()...)
}

// Fingerprint returns the suite's source identity — the workload
// identity for persistent result caches. It names what goes into
// lowering rather than what comes out: the hex SHA-256 of
// lower.Version, the trace's digest (trace.Trace.Digest: its name and
// every field of every instruction) and a digest of the partition
// assignment the DM was lowered under. So it changes when a workload model is recalibrated,
// when its scale or spec changes, when the partition assigns ops
// differently, or when lower.Version is bumped — exactly the events
// that must invalidate cached results for the suite. Policies that
// produce the same assignment share a key, and so share store entries.
//
// The trace digest is computed once per trace and shared by every
// suite lowered from it (Repartition reuses it); the assignment digest
// once per Suite, since sweeps ask for the key per point. A lowering
// change that forgets the version bump is caught by the lowering guard
// test, which pins each catalog workload's key next to a hash of its
// lowered programs.
func (s *Suite) Fingerprint() string {
	s.fpOnce.Do(func() {
		td := s.Trace.Digest()
		ad := assignmentDigest(s.asg)
		h := sha256.New()
		h.Write([]byte(lower.Version))
		h.Write(td[:])
		h.Write(ad[:])
		s.fp = hex.EncodeToString(h.Sum(nil))
	})
	return s.fp
}

// assignmentChunk is the buffer assignmentDigest streams through: a
// large trace's assignment is never materialized as one byte slice.
const assignmentChunk = 8 << 10

// assignmentDigest hashes every per-instruction slice of a partition
// assignment, each length-prefixed, one byte per entry. The op counts
// are derived from these slices and are not hashed.
func assignmentDigest(a *partition.Assignment) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, assignmentChunk)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Unit)))
	for _, u := range a.Unit {
		if len(buf) == cap(buf) {
			flush()
		}
		buf = append(buf, byte(u))
	}
	for _, flags := range [][]bool{a.InAddrSlice, a.RecvAU, a.RecvDU} {
		if len(buf)+4 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(flags)))
		for _, f := range flags {
			if len(buf) == cap(buf) {
				flush()
			}
			b := byte(0)
			if f {
				b = 1
			}
			buf = append(buf, b)
		}
	}
	flush()
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
