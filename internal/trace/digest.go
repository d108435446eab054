package trace

import (
	"crypto/sha256"
	"encoding/binary"
)

// digestChunk is the buffer size Digest streams its encoding through:
// one hash Write per 8 KiB rather than one per field.
const digestChunk = 8 << 10

// Digest returns the SHA-256 of the trace's name and instruction
// stream: every instruction's class, operands and memory address, in
// program order. It is the trace half of a suite's source key
// (machine.Suite.Fingerprint), so it must cover everything a lowering
// can read. The hash input is the
// length-prefixed name, then per instruction the class byte, the
// length-prefixed Addr and Args operand lists as little-endian 4-byte
// integers and the 8-byte MemAddr; how the stream is chunked into
// Writes does not change the value.
//
// Traces are immutable, so the digest is computed once per *Trace and
// shared by every suite lowered from it, under any partition.
func (t *Trace) Digest() [sha256.Size]byte {
	t.digestOnce.Do(func() {
		h := sha256.New()
		buf := make([]byte, 0, digestChunk)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Name)))
		buf = append(buf, t.Name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Len()))
		for i, c := range t.class {
			lo, mid, hi := t.off[i], t.split(i), t.off[i+1]
			if len(buf)+1+4*(2+int(hi-lo))+8 > cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = append(buf, byte(c))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(mid-lo))
			for _, a := range t.ops[lo:mid] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(hi-mid))
			for _, a := range t.ops[mid:hi] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
			}
			buf = binary.LittleEndian.AppendUint64(buf, t.memAddr[i])
		}
		h.Write(buf)
		h.Sum(t.digest[:0])
	})
	return t.digest
}
