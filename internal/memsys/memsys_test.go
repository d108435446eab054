package memsys

import (
	"testing"
	"testing/quick"

	"daesim/internal/engine"
	"daesim/internal/isa"
)

// All models must satisfy engine.MemModel.
var (
	_ engine.MemModel = (*Fixed)(nil)
	_ engine.MemModel = (*Ports)(nil)
	_ engine.MemModel = (*Outstanding)(nil)
	_ engine.MemModel = (*Bypass)(nil)
)

func TestFixed(t *testing.T) {
	m := &Fixed{MD: 60}
	if got := m.RequestFill(0x100, 10); got != 70 {
		t.Fatalf("arrival = %d, want 70", got)
	}
	m.Consume(0x100, 71)
	m.Reset()
	if got := m.RequestFill(0x200, 0); got != 60 {
		t.Fatalf("after reset: %d, want 60", got)
	}
}

func TestPortsSerializesWithinCycle(t *testing.T) {
	m, err := NewPorts(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three requests in cycle 5: two start at 5, one at 6.
	if a := m.RequestFill(1, 5); a != 15 {
		t.Errorf("first: %d, want 15", a)
	}
	if a := m.RequestFill(2, 5); a != 15 {
		t.Errorf("second: %d, want 15", a)
	}
	if a := m.RequestFill(3, 5); a != 16 {
		t.Errorf("third: %d, want 16", a)
	}
	// A later request is unaffected once bandwidth frees.
	if a := m.RequestFill(4, 20); a != 30 {
		t.Errorf("later: %d, want 30", a)
	}
}

func TestPortsBacklogCarries(t *testing.T) {
	m, _ := NewPorts(0, 1)
	// Port rate 1/cycle: requests at the same cycle pile up one per cycle.
	for i := int64(0); i < 5; i++ {
		if a := m.RequestFill(uint64(i), 0); a != i {
			t.Fatalf("request %d: arrival %d, want %d", i, a, i)
		}
	}
	// Next request at cycle 2 is behind the backlog (backlog ends at 4).
	if a := m.RequestFill(99, 2); a != 5 {
		t.Fatalf("backlogged request: %d, want 5", a)
	}
}

func TestPortsValidation(t *testing.T) {
	if _, err := NewPorts(10, 0); err == nil {
		t.Error("zero ports accepted")
	}
	if _, err := NewPorts(-1, 1); err == nil {
		t.Error("negative md accepted")
	}
}

func TestOutstandingCapacity(t *testing.T) {
	m, err := NewOutstanding(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two fills in flight from cycle 0: arrivals 10, 10.
	if a := m.RequestFill(1, 0); a != 10 {
		t.Errorf("first: %d", a)
	}
	if a := m.RequestFill(2, 0); a != 10 {
		t.Errorf("second: %d", a)
	}
	// Third must wait for the first to complete: starts at 10, arrives 20.
	if a := m.RequestFill(3, 0); a != 20 {
		t.Errorf("third: %d, want 20", a)
	}
	// After time passes, capacity frees.
	if a := m.RequestFill(4, 100); a != 110 {
		t.Errorf("late: %d, want 110", a)
	}
}

func TestOutstandingNondecreasing(t *testing.T) {
	f := func(seeds []uint8) bool {
		m, _ := NewOutstanding(7, 3)
		var sent, prev int64
		for _, s := range seeds {
			sent += int64(s % 4)
			a := m.RequestFill(uint64(s), sent)
			if a < sent+7 || a < prev {
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestOutstandingMatchesNaiveQueue: the on-demand ring answers exactly
// as a plain slice of in-flight completions, across Reset and for
// capacities below, at and far above the ring's growth steps — so a
// huge bound costs only the fills actually in flight.
func TestOutstandingMatchesNaiveQueue(t *testing.T) {
	f := func(steps []uint8, capSel uint8) bool {
		capacity := []int{1, 5, 16, 40, 1 << 40}[int(capSel)%5]
		m, err := NewOutstanding(9, capacity)
		if err != nil {
			return false
		}
		for pass := 0; pass < 2; pass++ {
			m.Reset()
			var inflight []int64 // completions, nondecreasing
			var sent int64
			for _, st := range steps {
				sent += int64(st % 3)
				start := sent
				for len(inflight) > 0 && inflight[0] <= start {
					inflight = inflight[1:]
				}
				if len(inflight) == capacity {
					start, inflight = inflight[0], inflight[1:]
				}
				inflight = append(inflight, start+9)
				if got := m.RequestFill(uint64(st), sent); got != start+9 {
					return false
				}
			}
		}
		return len(m.ring) <= max(2*len(steps), 16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOutstandingValidation(t *testing.T) {
	if _, err := NewOutstanding(10, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewOutstanding(-2, 4); err == nil {
		t.Error("negative md accepted")
	}
}

func TestBypassHitAndMiss(t *testing.T) {
	m, err := NewBypass(50, 4)
	if err != nil {
		t.Fatal(err)
	}
	a1 := m.RequestFill(0x1000, 0)
	if a1 != 50 {
		t.Fatalf("miss arrival = %d, want 50", a1)
	}
	// Same line, later: hit at HitLat once resident.
	if a := m.RequestFill(0x1008, 100); a != 101 {
		t.Fatalf("hit arrival = %d, want 101", a)
	}
	// Same line while fill in flight: coalesced to the original arrival.
	if a := m.RequestFill(0x1010, 10); a != 50 {
		t.Fatalf("coalesced arrival = %d, want 50", a)
	}
	if m.Hits != 2 || m.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", m.Hits, m.Misses)
	}
	if m.MemHits() != 2 {
		t.Fatalf("MemHits = %d, want 2", m.MemHits())
	}
}

func TestBypassLRUEviction(t *testing.T) {
	m, _ := NewBypass(30, 2)
	m.RequestFill(0*isa.CacheLineBytes, 0) // line 0
	m.RequestFill(1*isa.CacheLineBytes, 1) // line 1
	m.RequestFill(0*isa.CacheLineBytes, 2) // touch line 0 (hit)
	m.RequestFill(2*isa.CacheLineBytes, 3) // line 2: evicts line 1 (LRU)
	if a := m.RequestFill(1*isa.CacheLineBytes, 100); a != 130 {
		t.Fatalf("evicted line should miss: %d, want 130", a)
	}
	// The refetch of line 1 evicted line 0; line 2 is still resident.
	if a := m.RequestFill(2*isa.CacheLineBytes, 200); a != 201 {
		t.Fatalf("retained line should hit: %d, want 201", a)
	}
	if a := m.RequestFill(0*isa.CacheLineBytes, 300); a != 330 {
		t.Fatalf("evicted line 0 should miss: %d, want 330", a)
	}
}

func TestBypassReset(t *testing.T) {
	m, _ := NewBypass(10, 2)
	m.RequestFill(0x40, 0)
	m.Reset()
	if m.Hits != 0 || m.Misses != 0 {
		t.Fatal("counters survive reset")
	}
	if a := m.RequestFill(0x40, 0); a != 10 {
		t.Fatalf("table survives reset: %d", a)
	}
}

func TestBypassValidation(t *testing.T) {
	if _, err := NewBypass(10, 0); err == nil {
		t.Error("zero lines accepted")
	}
	if _, err := NewBypass(-1, 4); err == nil {
		t.Error("negative md accepted")
	}
}

// Property: all models respect the engine contract arrival >= sent.
func TestModelsRespectContract(t *testing.T) {
	mk := func() []engine.MemModel {
		p, _ := NewPorts(13, 2)
		o, _ := NewOutstanding(13, 3)
		b, _ := NewBypass(13, 8)
		return []engine.MemModel{&Fixed{MD: 13}, p, o, b}
	}
	f := func(addrs []uint16, deltas []uint8) bool {
		models := mk()
		for _, m := range models {
			var sent int64
			for i, a := range addrs {
				if i < len(deltas) {
					sent += int64(deltas[i] % 8)
				}
				if got := m.RequestFill(uint64(a)*8, sent); got < sent {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
