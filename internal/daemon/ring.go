package daemon

import (
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring mapping cache keys to the members of a
// sweepd fleet. Each member is projected onto the ring at VirtualNodes
// pseudo-random positions (FNV-1a of "member|vnode", so the layout is a
// pure function of the member names — deterministic across processes
// and builds, with no seed to drift); a key belongs to the member owning
// the first position at or clockwise after the key's own hash.
//
// The two properties the fleet relies on (pinned by TestRingRemap):
//
//   - Stability: removing a member remaps only the keys it owned, and
//     adding one steals roughly 1/(N+1) of the keyspace, taking nothing
//     from one surviving member to give to another. A replica joining
//     or leaving therefore invalidates at most ~1/N of every client's
//     routing, not all of it.
//   - Determinism: two processes given the same member list route every
//     key identically, so independent repro clients sharing a fleet
//     converge on the same replica for the same cache key and its
//     single-flight L1 coalesces their load.
//
// Member identity is the listed name verbatim ("http://10.0.0.1:8077"
// and "http://host1:8077" are different members even when they resolve
// to the same daemon), so every client of a fleet must be configured
// with the same address list — the membership guard in
// FleetClient.Health catches drift when the daemons advertise theirs.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash, ties by member index
}

// ringPoint is one virtual node: a position on the ring and the member
// that owns it.
type ringPoint struct {
	hash   uint64
	member int
}

// VirtualNodes is the number of ring positions per member. 128 keeps
// the largest member share under ~45% of a 3-replica fleet's keyspace
// in the worst case (TestRingBalance pins <60%, the fleet test's bound)
// while keeping ring construction and lookup cheap.
const VirtualNodes = 128

// NewRing builds a ring over the member names, in order. Member indices
// returned by Owner/Owners index this slice.
func NewRing(members []string) *Ring {
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*VirtualNodes),
	}
	for i, m := range members {
		for v := 0; v < VirtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(m + "|" + strconv.Itoa(v)), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
	return r
}

// ringHash is FNV-1a 64 followed by a murmur3-style 64-bit finalizer:
// dependency-free and stable across processes and architectures (no
// per-process seed), which Owner's cross-client determinism depends
// on. The finalizer matters: raw FNV of the vnode strings — one member
// prefix with sequential "|0".."|127" suffixes — leaves correlated,
// clustered ring positions (measured max member share up to ~86% of a
// 3-member keyspace over random member names); full avalanche brings
// the worst case under ~50% (TestRingBalanceAcrossMemberNames).
// The FNV loop is written out so hashing a key neither boxes a
// hash.Hash64 nor copies the key to []byte.
//
//daelint:hotpath
func ringHash(s string) uint64 {
	x := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211 // FNV-1a prime
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the member names backing indices.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the member index owning key, Owners(key, 1)[0], or -1
// on an empty ring. The fleet client routes through Owners instead
// (FleetClient.pickCandidate needs the failover sequence too); Owner
// serves daesim.FleetRing callers and the routing tests, which ask only
// for the primary owner.
func (r *Ring) Owner(key string) int {
	if o := r.Owners(key, 1); len(o) > 0 {
		return o[0]
	}
	return -1
}

// Owners returns up to n distinct member indices in ring order starting
// from key's position: Owners(key, 1)[0] is the primary owner, and the
// rest are the failover sequence — the members that inherit the key's
// arc when the ones before them leave the ring, so retrying a down
// replica's keys on the next owner lands exactly where a ring without
// that replica would have routed them (rendezvous fallback).
func (r *Ring) Owners(key string, n int) []int {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]int, 0, n)
	seen := make([]bool, len(r.members))
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			owners = append(owners, p.member)
		}
	}
	return owners
}
