package memsys

import (
	"testing"
	"testing/quick"

	"daesim/internal/engine"
	"daesim/internal/isa"
)

var _ engine.MemModel = (*Hierarchy)(nil)

func line(n uint64) uint64 { return n * isa.CacheLineBytes }

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(60); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := NewHierarchy(-1, CacheLevel{Sets: 4, Ways: 1}); err == nil {
		t.Error("negative md accepted")
	}
	bad := []CacheLevel{
		{Sets: 0, Ways: 1},
		{Sets: 3, Ways: 1}, // not a power of two
		{Sets: 4, Ways: 0},
		{Sets: 4, Ways: 1, HitLat: -1},
	}
	for _, l := range bad {
		if _, err := NewHierarchy(60, l); err == nil {
			t.Errorf("bad level %+v accepted", l)
		}
	}
}

func TestHierarchyHitAndMiss(t *testing.T) {
	h, err := NewHierarchy(60, CacheLevel{Sets: 4, Ways: 2, HitLat: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a := h.RequestFill(line(1), 0); a != 60 {
		t.Fatalf("cold miss arrival = %d, want 60", a)
	}
	if a := h.RequestFill(line(1)+8, 100); a != 102 {
		t.Fatalf("hit arrival = %d, want 102", a)
	}
	if h.Hits[0] != 1 || h.Misses != 1 {
		t.Fatalf("counters wrong: hits=%v misses=%d", h.Hits, h.Misses)
	}
	if h.MemHits() != 1 {
		t.Fatalf("MemHits = %d, want 1", h.MemHits())
	}
}

func TestHierarchyLRUWithinSet(t *testing.T) {
	// One set, two ways: the third distinct line evicts the LRU.
	h, _ := NewHierarchy(30, CacheLevel{Sets: 1, Ways: 2, HitLat: 1})
	h.RequestFill(line(1), 0) // miss; set = {1}
	h.RequestFill(line(2), 1) // miss; set = {1,2}
	h.RequestFill(line(1), 2) // hit;  set = {2,1}
	h.RequestFill(line(3), 3) // miss; evicts 2
	if a := h.RequestFill(line(2), 10); a != 40 {
		t.Fatalf("evicted line should miss: %d, want 40", a)
	}
	// The refetch of line 2 evicted line 1 (LRU after line 3's install);
	// line 3 remains resident.
	if a := h.RequestFill(line(3), 50); a != 51 {
		t.Fatalf("line 3 should still hit: %d, want 51", a)
	}
	if a := h.RequestFill(line(1), 60); a != 90 {
		t.Fatalf("line 1 should have been evicted: %d, want 90", a)
	}
}

func TestHierarchyTwoLevels(t *testing.T) {
	h, _ := NewHierarchy(60,
		CacheLevel{Sets: 1, Ways: 1, HitLat: 2},
		CacheLevel{Sets: 1, Ways: 4, HitLat: 8},
	)
	h.RequestFill(line(1), 0) // miss -> installed in L1 and L2
	h.RequestFill(line(2), 1) // miss -> L1 now {2}; L2 {1,2}
	// Line 1 is out of L1 but in L2.
	if a := h.RequestFill(line(1), 10); a != 18 {
		t.Fatalf("L2 hit arrival = %d, want 18", a)
	}
	if h.Hits[0] != 0 || h.Hits[1] != 1 || h.Misses != 2 {
		t.Fatalf("level counters wrong: %v %d", h.Hits, h.Misses)
	}
	// The L2 hit refills L1: the next access hits L1.
	if a := h.RequestFill(line(1), 20); a != 22 {
		t.Fatalf("refilled L1 hit arrival = %d, want 22", a)
	}
}

func TestHierarchySetIndexing(t *testing.T) {
	// Lines mapping to different sets must not evict each other.
	h, _ := NewHierarchy(60, CacheLevel{Sets: 4, Ways: 1, HitLat: 1})
	for i := uint64(0); i < 4; i++ {
		h.RequestFill(line(i), int64(i))
	}
	for i := uint64(0); i < 4; i++ {
		if a := h.RequestFill(line(i), 100); a != 101 {
			t.Fatalf("line %d should still be resident: %d", i, a)
		}
	}
}

func TestDefaultHierarchy(t *testing.T) {
	h, err := DefaultHierarchy(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != 2 {
		t.Fatal("default should have two levels")
	}
	h.RequestFill(0x1000, 0)
	h.Reset()
	if h.MemHits() != 0 || h.Misses != 0 {
		t.Fatal("reset should clear counters")
	}
}

func TestHierarchyContract(t *testing.T) {
	f := func(addrs []uint16, deltas []uint8) bool {
		h, _ := NewHierarchy(13,
			CacheLevel{Sets: 8, Ways: 2, HitLat: 1},
			CacheLevel{Sets: 32, Ways: 2, HitLat: 5},
		)
		var sent int64
		for i, a := range addrs {
			if i < len(deltas) {
				sent += int64(deltas[i] % 4)
			}
			got := h.RequestFill(uint64(a)*8, sent)
			if got < sent || got > sent+13 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
