package memsys

import (
	"fmt"

	"daesim/internal/isa"
)

// CacheLevel configures one level of a cache hierarchy.
type CacheLevel struct {
	// Sets and Ways define the geometry; capacity = Sets*Ways lines.
	Sets, Ways int
	// HitLat is the extra cycles a hit at this level costs beyond the
	// buffer-request cycle the consume op already pays (0 = as fast as a
	// register-file access).
	HitLat int64
}

// Validate reports geometry errors.
func (l CacheLevel) Validate() error {
	if l.Sets < 1 || l.Sets > MaxSets || l.Sets&(l.Sets-1) != 0 {
		return fmt.Errorf("memsys: cache sets %d must be a power of two in [1, %d]", l.Sets, MaxSets)
	}
	if l.Ways < 1 || l.Ways > MaxWays {
		return fmt.Errorf("memsys: cache ways %d outside [1, %d]", l.Ways, MaxWays)
	}
	if l.HitLat < 0 {
		return fmt.Errorf("memsys: hit latency %d < 0", l.HitLat)
	}
	return nil
}

// Hierarchy is a multi-level LRU cache model implementing
// engine.MemModel. The paper abstracts the memory system as a fixed
// differential ("the cost of a second level cache miss"); Hierarchy
// refines that: a fill that hits level i arrives after that level's hit
// latency, and only full misses pay the differential MD. Lines are
// isa.CacheLineBytes wide. Fills are inclusive: a miss installs the line
// at every level.
type Hierarchy struct {
	// MD is the full-miss (memory) differential in cycles.
	MD int64
	// Levels orders the hierarchy from closest (L1) to farthest.
	Levels []CacheLevel

	sets [][]cacheSet
	// Hits[i] counts hits at level i; Misses counts full misses.
	Hits   []int64
	Misses int64
}

type cacheSet struct {
	// ways holds line tags in LRU order: most recently used last.
	ways []uint64
}

// NewHierarchy returns a cache hierarchy model.
func NewHierarchy(md int64, levels ...CacheLevel) (*Hierarchy, error) {
	if md < 0 {
		return nil, fmt.Errorf("memsys: md %d < 0", md)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("memsys: hierarchy needs at least one level")
	}
	for i, l := range levels {
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("memsys: level %d: %w", i+1, err)
		}
	}
	h := &Hierarchy{MD: md, Levels: levels}
	h.Reset()
	return h, nil
}

// Reset implements engine.MemModel.
func (h *Hierarchy) Reset() {
	h.sets = make([][]cacheSet, len(h.Levels))
	for i, l := range h.Levels {
		h.sets[i] = make([]cacheSet, l.Sets)
	}
	h.Hits = make([]int64, len(h.Levels))
	h.Misses = 0
}

// lookup probes level i and, on hit, refreshes LRU order.
func (h *Hierarchy) lookup(level int, line uint64) bool {
	set := &h.sets[level][line&uint64(h.Levels[level].Sets-1)]
	for k, tag := range set.ways {
		if tag == line {
			set.ways = append(append(set.ways[:k], set.ways[k+1:]...), line)
			return true
		}
	}
	return false
}

// install places the line at level i, evicting LRU on overflow.
func (h *Hierarchy) install(level int, line uint64) {
	set := &h.sets[level][line&uint64(h.Levels[level].Sets-1)]
	set.ways = append(set.ways, line)
	if len(set.ways) > h.Levels[level].Ways {
		set.ways = set.ways[1:]
	}
}

// RequestFill implements engine.MemModel.
func (h *Hierarchy) RequestFill(addr uint64, sent int64) int64 {
	line := isa.LineOf(addr)
	for i := range h.Levels {
		if h.lookup(i, line) {
			h.Hits[i]++
			// Refill the closer levels.
			for j := 0; j < i; j++ {
				h.install(j, line)
			}
			return sent + h.Levels[i].HitLat
		}
	}
	h.Misses++
	for i := range h.Levels {
		h.install(i, line)
	}
	return sent + h.MD
}

// Consume implements engine.MemModel.
func (h *Hierarchy) Consume(addr uint64, cycle int64) {}

// MemHits implements engine.MemHitCounter: the fills served by any
// level.
func (h *Hierarchy) MemHits() int64 {
	var total int64
	for _, v := range h.Hits {
		total += v
	}
	return total
}

// DefaultHierarchy returns a Pentium-Pro-flavoured two-level hierarchy:
// an 8KB 2-way L1 (2-cycle hits) and a 256KB 4-way L2 (8-cycle hits),
// with full misses paying md — the paper's MD=60 is "comparable to the
// cost of a second level cache miss".
func DefaultHierarchy(md int64) (*Hierarchy, error) {
	return NewHierarchy(md, defaultL1, defaultL2)
}

var (
	defaultL1 = CacheLevel{Sets: 64, Ways: 2, HitLat: 2}
	defaultL2 = CacheLevel{Sets: 1024, Ways: 4, HitLat: 8}
)
