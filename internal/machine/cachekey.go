package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"daesim/internal/engine"
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

// fpChunk is the size of the buffer Fingerprint streams its encoding
// through: one hash Write per 64 KiB rather than one per integer.
const fpChunk = 64 << 10

// Fingerprint returns a content hash of the suite's lowered programs —
// the workload identity for persistent result caches. It covers every
// field of every op of both machines' programs plus the trace length, so
// it changes when a workload model is recalibrated, when its scale
// changes, when the partition policy assigns ops differently, or when a
// lowering emits different code — exactly the events that must invalidate
// cached results for the suite. The hash input is each program's name
// followed by little-endian 8-byte integers; how that stream is chunked
// into Writes does not change the value (TestFingerprintMatchesReference
// pins it against a one-Write-per-integer encoder). Computed once per
// Suite, since sweeps ask for it per point: hashing MDG's 3.6 MB classic
// program pair takes about 4 ms on a 2-vCPU cloud Xeon
// (BenchmarkSuiteFingerprint; about 9 ms with one Write per integer).
func (s *Suite) Fingerprint() string {
	s.fpOnce.Do(func() {
		h := sha256.New()
		buf := make([]byte, 0, fpChunk)
		flush := func() {
			h.Write(buf)
			buf = buf[:0]
		}
		hashProgram := func(p *engine.Program) {
			buf = append(buf, p.Name...)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.NumUnits))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.TraceLen))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Ops)))
			for i := range p.Ops {
				op := &p.Ops[i]
				if len(buf)+8*(6+len(op.Srcs)) > cap(buf) {
					flush()
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Kind))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Unit))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(op.MemSrc))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Addr))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Orig))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(len(op.Srcs)))
				for _, src := range op.Srcs {
					buf = binary.LittleEndian.AppendUint64(buf, uint64(src))
				}
			}
		}
		hashProgram(s.DM.Program)
		hashProgram(s.SWSM)
		flush()
		s.fp = hex.EncodeToString(h.Sum(nil))
	})
	return s.fp
}
