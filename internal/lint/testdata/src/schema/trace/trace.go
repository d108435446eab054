// Package trace is the schemaguard fixture's lowering input: the source
// key reads class and ops through Digest, memAddr is the slab someone
// forgot, and the digest memo is exempted with an annotation.
package trace

// Trace mirrors the real trace.Trace's slabs.
type Trace struct {
	class   []int
	ops     []int32
	memAddr []uint64 // want `field memAddr of trace.Trace is not read by the source key Fingerprint`
	//daelint:unkeyed fixture: memo of Digest
	digest uint64
}

// Digest hashes an instruction stream.
func Digest(t *Trace) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range t.class {
		h ^= uint64(c)
		h *= 1099511628211
	}
	for _, a := range t.ops {
		h ^= uint64(a)
		h *= 1099511628211
	}
	return h
}
