// Package machine is the schemaguard fixture's parameter schema, which
// is also its own wire form: A and B are fully plumbed, C is the field
// someone forgot everywhere, and D and E carry bad wire names.
// Fingerprint is the source key over trace.Trace and Assignment.
package machine

import (
	"strconv"

	"schema/trace"
)

// Params mirrors the real machine.Params shape.
type Params struct {
	A int    `json:"a"`
	B string `json:"b,omitempty"`
	C int    // want `field C added to machine.Params but not encoded in CacheKey` `wire field Params.C has no json name`
	//daelint:unkeyed fixture: exercises the wire-name check only
	D int `json:"-"` // want `wire field Params.D is tagged json:"-"`
	//daelint:unkeyed fixture: exercises the wire-name check only
	E int `json:"a,omitempty"` // want `wire field Params.E reuses the json name "a" of field A`
}

// Assignment mirrors partition.Assignment for the source-key check:
// Unit is keyed, Recv is the slice someone forgot, Ops is a derived
// counter exempted with an annotation.
type Assignment struct {
	Unit []uint8
	Recv []bool // want `field Recv of machine.Assignment is not read by the source key Fingerprint`
	//daelint:unkeyed fixture: derived from Unit
	Ops int
}

// CacheKey encodes the cache identity of p.
func (p Params) CacheKey() string {
	return strconv.Itoa(p.A) + "|" + p.B
}

// Fingerprint keys a suite by its lowering inputs; the trace half is
// read in another package, through trace.Digest.
func Fingerprint(tr *trace.Trace, a *Assignment) uint64 {
	h := trace.Digest(tr)
	for _, u := range a.Unit {
		h ^= uint64(u)
		h *= 1099511628211
	}
	return h
}
