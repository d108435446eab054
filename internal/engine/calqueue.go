package engine

import "math/bits"

// The event queue is an indexed calendar queue (timing wheel): a
// power-of-two ring of per-cycle buckets covering [now, now+len) plus a
// min-heap overflow for events beyond the horizon. Scheduling and firing
// an in-horizon event are O(1) array operations — no map hashing, no
// per-bucket allocation after warm-up — which is what makes the engine's
// inner loop allocation-free when a Sim is reused. Far events (huge
// memory differentials, queueing memory models that delay arrivals
// arbitrarily) spill to the overflow heap and migrate into the wheel as
// time advances.
//
// Nonempty slots are tracked in a bitmap (one bit per slot). The idle
// fast-forward scans the bitmap in ring order with TrailingZeros64 —
// a handful of word reads for the whole wheel — replacing the earlier
// candidate-time min-heap whose push/pop dominated the advance path.
//
// Invariants:
//   - every scheduled time is strictly in the future of the cycle that
//     scheduled it, and the wheel only holds times in (now, now+len), so
//     a nonempty bucket's time is unambiguous (no wrap-around aliasing);
//   - a slot's bit is set iff its bucket is nonempty;
//   - drain(now) has been called before fire/nextAfter at cycle `now`,
//     so the overflow heap's minimum is always >= now+len and every
//     in-horizon event is in the wheel.

// evBucket collects the events that fire at one cycle. comps are ops
// completing (free slot, wake plain consumers); fills are send ops whose
// memory fill arrives (wake fill consumers). Slices keep their capacity
// across runs.
type evBucket struct {
	time  int64
	comps []int32
	fills []int32
}

//daelint:hotpath
func (b *evBucket) empty() bool { return len(b.comps) == 0 && len(b.fills) == 0 }

// farEvent is an event beyond the wheel horizon.
type farEvent struct {
	time int64
	op   int32
	fill bool
}

// farHeap is a binary min-heap of far events keyed by time. Events that
// tie on time may pop in any order; bucket-internal event order is
// semantically irrelevant (see the determinism note in sim.go).
type farHeap struct{ a []farEvent }

//daelint:hotpath
func (h *farHeap) empty() bool { return len(h.a) == 0 }

//daelint:hotpath
func (h *farHeap) reset() { h.a = h.a[:0] }

//daelint:hotpath
func (h *farHeap) min() int64 { return h.a[0].time }

//daelint:hotpath
func (h *farHeap) push(v farEvent) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent].time <= h.a[i].time {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

//daelint:hotpath
func (h *farHeap) pop() farEvent {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.a[l].time < h.a[smallest].time {
			smallest = l
		}
		if r < last && h.a[r].time < h.a[smallest].time {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return top
}

// Wheel size bounds. The size is chosen per run from the timing so the
// fixed-differential fast path (latency + MD offsets) stays in-wheel;
// sweeps over MD 0..60 all land on the minimum size, so a reused Sim
// never reallocates its slots.
const (
	minWheelSize = 256
	maxWheelSize = 8192
)

// A bucket's initial room for completions and for fills; a bucket that
// needs more grows on its own and keeps the room across runs.
const (
	bucketComps = 8
	bucketFills = 4
)

type calQueue struct {
	slots []evBucket
	mask  int64
	// bits[w] bit b set iff slots[w*64+b] is nonempty.
	bits []uint64
	far  farHeap
}

// reset prepares the queue for a run whose in-wheel events span at most
// `horizon` cycles ahead of their scheduling cycle.
func (q *calQueue) reset(horizon int64) {
	size := int64(minWheelSize)
	for size < horizon && size < maxWheelSize {
		size <<= 1
	}
	if int64(len(q.slots)) != size {
		q.slots = make([]evBucket, size)
		q.bits = make([]uint64, size/64)
		// Every bucket starts with room for a few events, carved from one
		// slab: growing each from nil one append at a time cost a fresh
		// Sim about a thousand allocations on its first run.
		slab := make([]int32, size*(bucketComps+bucketFills))
		for i := range q.slots {
			b := &q.slots[i]
			b.comps, slab = slab[:0:bucketComps], slab[bucketComps:]
			b.fills, slab = slab[:0:bucketFills], slab[bucketFills:]
		}
	} else {
		for i := range q.slots {
			q.slots[i].comps = q.slots[i].comps[:0]
			q.slots[i].fills = q.slots[i].fills[:0]
		}
		clear(q.bits)
	}
	q.mask = size - 1
	q.far.reset()
}

// put inserts op i into the in-horizon bucket at time t.
//
//daelint:hotpath
func (q *calQueue) put(t int64, i int32, fill bool) {
	slot := t & q.mask
	b := &q.slots[slot]
	if b.empty() {
		b.time = t
		q.bits[slot>>6] |= 1 << uint(slot&63)
	}
	if fill {
		b.fills = append(b.fills, i)
	} else {
		b.comps = append(b.comps, i)
	}
}

// schedule inserts op i at time t (> now); fill selects the fill list.
//
//daelint:hotpath
func (q *calQueue) schedule(now, t int64, i int32, fill bool) {
	if t-now < int64(len(q.slots)) {
		q.put(t, i, fill)
		return
	}
	q.far.push(farEvent{time: t, op: i, fill: fill})
}

// drain migrates far events that have come within the horizon of `now`
// into the wheel. Call once per simulated cycle, before fire.
//
//daelint:hotpath
func (q *calQueue) drain(now int64) {
	horizon := now + int64(len(q.slots))
	for !q.far.empty() && q.far.min() < horizon {
		ev := q.far.pop()
		q.put(ev.time, ev.op, ev.fill)
	}
}

// fire returns the bucket due at `now`, or nil if none. The caller must
// process and then release it with clearBucket.
//
//daelint:hotpath
func (q *calQueue) fire(now int64) *evBucket {
	b := &q.slots[now&q.mask]
	if b.time == now && !b.empty() {
		return b
	}
	return nil
}

// clearBucket empties a fired bucket and clears its nonempty bit.
//
//daelint:hotpath
func (q *calQueue) clearBucket(b *evBucket) {
	b.comps = b.comps[:0]
	b.fills = b.fills[:0]
	slot := b.time & q.mask
	q.bits[slot>>6] &^= 1 << uint(slot&63)
}

// nextAfter returns the earliest pending event time strictly after `now`,
// or -1 if no events are pending. drain(now) must have run, so any valid
// wheel time is closer than the overflow minimum. The bitmap scan visits
// slots in ring order starting just after `now`; because every wheel time
// lies in (now, now+len), ring distance equals time distance and the
// first set bit is the earliest event.
//
//daelint:hotpath
func (q *calQueue) nextAfter(now int64) int64 {
	words := len(q.bits)
	start := int((now + 1) & q.mask)
	w := start >> 6
	// Mask off bits below the start slot; they wrap to the end of the
	// scan and are re-examined in the final full-word pass.
	word := q.bits[w] &^ (1<<uint(start&63) - 1)
	for k := 0; k <= words; k++ {
		if word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			return q.slots[slot].time
		}
		w++
		if w == words {
			w = 0
		}
		word = q.bits[w]
	}
	if !q.far.empty() {
		return q.far.min()
	}
	return -1
}

// shift moves every pending event dt cycles and dop ops later, for the
// steady-state skip's jump from cycle now to now+dt. evs is scratch; the
// grown slice is returned for reuse.
//
//daelint:hotpath
func (q *calQueue) shift(evs []farEvent, now, dt int64, dop int32) []farEvent {
	evs = evs[:0]
	for w, word := range q.bits {
		for word != 0 {
			b := &q.slots[w<<6+bits.TrailingZeros64(word)]
			word &= word - 1
			for _, i := range b.comps {
				evs = append(evs, farEvent{time: b.time, op: i})
			}
			for _, i := range b.fills {
				evs = append(evs, farEvent{time: b.time, op: i, fill: true})
			}
			b.comps = b.comps[:0]
			b.fills = b.fills[:0]
		}
		q.bits[w] = 0
	}
	evs = append(evs, q.far.a...)
	q.far.reset()
	for _, ev := range evs {
		q.schedule(now+dt, ev.time+dt, ev.op+dop, ev.fill)
	}
	return evs
}
