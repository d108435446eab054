// Package trace is the schemaguard fixture's lowering input: the source
// key reads Class and Addr through Digest, MemAddr is the field someone
// forgot.
package trace

// Instr mirrors the real trace.Instr.
type Instr struct {
	Class   int
	Addr    []int32
	MemAddr uint64 // want `field MemAddr of trace.Instr is not read by the source key Fingerprint`
}

// Digest hashes an instruction stream.
func Digest(instrs []Instr) uint64 {
	var h uint64 = 1469598103934665603
	for i := range instrs {
		h ^= uint64(instrs[i].Class)
		h *= 1099511628211
		for _, a := range instrs[i].Addr {
			h ^= uint64(a)
			h *= 1099511628211
		}
	}
	return h
}
