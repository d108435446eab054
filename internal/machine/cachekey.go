package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"daesim/internal/lower"
	"daesim/internal/partition"
)

// CacheKey returns a canonical, process-stable encoding of (kind, p) for
// persistent result caches, and reports whether the point is cacheable at
// all. Points carrying a custom Params.Mem are not: a MemModel is
// arbitrary stateful code with no stable identity.
//
// The encoding writes every Params field explicitly, raw (unresolved),
// except the retirement policy, which is recorded resolved so a change
// to the machines' default accounting changes the key.
// TestCacheKeyCoversAllParams pins the field count: adding a Params field
// without extending this encoding is a build-time-visible bug, not a
// silent stale-cache hazard.
func (p Params) CacheKey(kind Kind) (string, bool) {
	if p.Mem != nil {
		return "", false
	}
	retire := RetireAtComplete
	if p.retireInOrder() {
		retire = RetireInOrder
	}
	return fmt.Sprintf("k=%s w=%d auw=%d duw=%d md=%d fp=%d cp=%d aw=%d dw=%d sw=%d dpw=%d mq=%d esw=%t hold=%t ret=%s",
		kind, p.Window, p.AUWindow, p.DUWindow, p.MD, p.FPLat, p.CopyLat,
		p.AUWidth, p.DUWidth, p.Width, p.DispatchWidth, p.MemQueue,
		p.CollectESW, p.HoldSendSlots, retire), true
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
