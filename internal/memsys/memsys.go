// Package memsys provides memory-system models beyond the paper's fixed
// differential. All models implement engine.MemModel. The paper
// deliberately idealizes the memory system ("we model its execution by
// considering every access to have a fixed cost"); these models support
// the ablations in DESIGN.md §6: bounded outstanding fills (which
// bounds AU slip), the bypass buffer the paper proposes as future work to
// exploit the temporal locality exposed by decoupling, and set-associative
// cache hierarchies.
package memsys

import (
	"fmt"

	"daesim/internal/isa"
)

// Outstanding bounds the number of fills in flight (MSHR-style): at most
// Cap fills may be outstanding; further requests queue until the oldest
// completes. On the decoupled machine this bounds how far the AU can
// usefully slip ahead; on the superscalar machine it bounds the prefetch
// buffer's outstanding prefetches. (True buffered-until-consumed capacity
// would require the memory model to see the future consume times; the
// in-flight bound is the standard implementable approximation.)
type Outstanding struct {
	// MD is the memory differential in cycles.
	MD int64
	// Cap is the maximum number of outstanding fills (>= 1).
	Cap int

	// completion times of in-flight fills, as a ring-buffered min-queue:
	// starts are nondecreasing so completions are too. The ring grows
	// on demand up to Cap, so it never outgrows the fills a program
	// actually has in flight, however large Cap is.
	ring []int64
	head int
	n    int
}

// NewOutstanding returns a capacity-limited model.
func NewOutstanding(md int64, capacity int) (*Outstanding, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("memsys: capacity %d < 1", capacity)
	}
	if md < 0 {
		return nil, fmt.Errorf("memsys: md %d < 0", md)
	}
	return &Outstanding{MD: md, Cap: capacity}, nil
}

// RequestFill implements engine.MemModel.
func (m *Outstanding) RequestFill(addr uint64, sent int64) int64 {
	start := sent
	head, n, size := m.head, m.n, len(m.ring)
	// Retire fills that completed by now. Conditional wrap instead of
	// modulo: this runs once per send on the simulator's hot path.
	for n > 0 && m.ring[head] <= start {
		if head++; head == size {
			head = 0
		}
		n--
	}
	if n == m.Cap {
		// Wait for the oldest in-flight fill.
		start = m.ring[head]
		if head++; head == size {
			head = 0
		}
		n--
	}
	if n == size {
		head, size = m.grow(head), len(m.ring)
	}
	done := start + m.MD
	tail := head + n
	if tail >= size {
		tail -= size
	}
	m.ring[tail] = done
	m.head, m.n = head, n+1
	return done
}

// grow doubles the full ring (at least 16 slots, at most Cap), unwraps
// it from head and returns the new head, 0.
func (m *Outstanding) grow(head int) int {
	size := min(max(2*len(m.ring), 16), m.Cap)
	ring := make([]int64, size)
	k := copy(ring, m.ring[head:])
	copy(ring[k:], m.ring[:head])
	m.ring = ring
	return 0
}

// Reset implements engine.MemModel.
func (m *Outstanding) Reset() { m.head = 0; m.n = 0 }

// MinFill implements engine.DelayMem: a queued fill only starts later,
// so no fill arrives sooner than MD after its send.
func (m *Outstanding) MinFill() int64 { return m.MD }

// AppendState implements engine.ShiftableMem: the fills in flight, oldest
// first, as completion times relative to now. Every later request is
// sent after now, so it first retires the fills at the head of the queue
// that are complete by now: they are left out, and a complete fill behind
// one still in flight, which counts toward Cap until it reaches the
// head, is written as 0.
func (m *Outstanding) AppendState(dst []int64, now int64) []int64 {
	head, n := m.head, m.n
	for n > 0 && m.ring[head] <= now {
		if head++; head == len(m.ring) {
			head = 0
		}
		n--
	}
	dst = append(dst, int64(n))
	for ; n > 0; n-- {
		dst = append(dst, max(m.ring[head]-now, 0))
		if head++; head == len(m.ring) {
			head = 0
		}
	}
	return dst
}

// Shift implements engine.ShiftableMem: every fill in flight completes
// dt cycles later.
func (m *Outstanding) Shift(dt int64) {
	for i := range m.ring {
		m.ring[i] += dt
	}
}

// Bypass models the paper's future-work bypass buffer: a line-grain LRU
// buffer inside the decoupled memory that captures the temporal locality
// exposed by decoupling. A request whose line is resident (fetched
// recently and not evicted) is satisfied in HitLat cycles; an in-flight
// line is coalesced. Misses cost the full differential.
type Bypass struct {
	// MD is the memory differential in cycles.
	MD int64
	// Lines is the buffer capacity in cache lines (>= 1).
	Lines int
	// HitLat is the bypass hit latency (>= 0; default 1 via NewBypass).
	HitLat int64

	table map[uint64]*bypassEntry
	// LRU list: most recently used at tail.
	lruHead, lruTail *bypassEntry

	// Hits and Misses count bypass outcomes for reporting.
	Hits, Misses int64
}

type bypassEntry struct {
	line       uint64
	arrival    int64
	prev, next *bypassEntry
}

// NewBypass returns a bypass-buffer model with hit latency 1.
func NewBypass(md int64, lines int) (*Bypass, error) {
	if err := validateLines(lines); err != nil {
		return nil, err
	}
	if md < 0 {
		return nil, fmt.Errorf("memsys: md %d < 0", md)
	}
	return &Bypass{MD: md, Lines: lines, HitLat: 1, table: make(map[uint64]*bypassEntry)}, nil
}

func validateLines(lines int) error {
	if lines < 1 || lines > MaxBypassLines {
		return fmt.Errorf("memsys: bypass lines %d outside [1, %d]", lines, MaxBypassLines)
	}
	return nil
}

func (m *Bypass) detach(e *bypassEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (m *Bypass) pushTail(e *bypassEntry) {
	e.prev = m.lruTail
	if m.lruTail != nil {
		m.lruTail.next = e
	}
	m.lruTail = e
	if m.lruHead == nil {
		m.lruHead = e
	}
}

// RequestFill implements engine.MemModel.
func (m *Bypass) RequestFill(addr uint64, sent int64) int64 {
	line := isa.LineOf(addr)
	if e, ok := m.table[line]; ok {
		m.Hits++
		m.detach(e)
		m.pushTail(e)
		// Hit: available after the original fill arrives, at bypass
		// latency once resident.
		arr := sent + m.HitLat
		if e.arrival > arr {
			arr = e.arrival
		}
		return arr
	}
	m.Misses++
	arrival := sent + m.MD
	e := &bypassEntry{line: line, arrival: arrival}
	m.table[line] = e
	m.pushTail(e)
	if len(m.table) > m.Lines {
		victim := m.lruHead
		m.detach(victim)
		delete(m.table, victim.line)
	}
	return arrival
}

// Reset implements engine.MemModel.
func (m *Bypass) Reset() {
	m.table = make(map[uint64]*bypassEntry)
	m.lruHead, m.lruTail = nil, nil
	m.Hits, m.Misses = 0, 0
}

// MemHits implements engine.MemHitCounter.
func (m *Bypass) MemHits() int64 { return m.Hits }
