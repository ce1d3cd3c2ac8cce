package sim

import "math/bits"

// entry is one pending occurrence — a runnable context or a scheduled
// event — ordered by the single key (t, rank). The rank classes make the
// engine's two orders one strict total order: an event's rank is
// packedKey(origin, per-origin seq), below 2^62, so equal-time events
// fire in (origin, seq) order — a function of each origin's own history,
// not of the interleaving of origins — and before any context; a
// context's rank is (1+prio)<<62 | id, so compute contexts run before
// daemons and either class in creation order.
type entry struct {
	t    Time
	rank uint64
	next *entry
	ctx  *Context // the context this entry is embedded in; nil for an event
	ev   Event
}

func (a *entry) less(b *entry) bool {
	return a.t < b.t || a.t == b.t && a.rank < b.rank
}

// evSeqBits is the per-origin sequence field width: 2^40 events per
// origin per run is beyond any simulation this engine will host.
// maxOrigins is what the rest of an event's rank leaves for origin+1.
const (
	evSeqBits  = 40
	ctxRankBit = 62
	maxOrigins = 1 << (ctxRankBit - evSeqBits)
)

// packedKey builds an event's rank from an origin (-1 for origin-less
// events, which therefore sort before every node origin) and its
// per-origin sequence number.
func packedKey(origin int, seq uint64) uint64 {
	return uint64(origin+1)<<evSeqBits | seq
}

func ctxRank(prio uint8, id int) uint64 {
	return uint64(1+prio)<<ctxRankBit | uint64(id)
}

// calBuckets is the calendar's size: a constant, because no benchmark
// workload ever schedules a lap ahead (the package comment has the
// counts) and anything that does is still popped in order, only slower.
const calBuckets = 256

// calendar is the engine's one ordering structure, a calendar queue
// (Brown, CACM 1988): an entry due at t sits in bucket t mod calBuckets,
// each bucket a list sorted by (t, rank), and occ has a bit per
// non-empty bucket. cursor is the latest time popped so far. There is no
// overflow structure: an entry a lap or more ahead (t >= cursor +
// calBuckets) waits in its bucket behind nearer ones and fails pop's lap
// check, and an entry before the cursor (an Unpark with a stale time) is
// filed in the cursor's bucket, where sorting by true time puts it
// first.
type calendar struct {
	cursor  Time
	n       int
	occ     [calBuckets / 64]uint64
	buckets [calBuckets]*entry
	free    *entry // released event entries
}

func (q *calendar) push(en *entry) {
	b := uint(max(en.t, q.cursor)) % calBuckets
	p := &q.buckets[b]
	for *p != nil && (*p).less(en) {
		p = &(*p).next
	}
	en.next, *p = *p, en
	q.occ[b/64] |= 1 << (b % 64)
	q.n++
}

// pop removes and returns the least entry of a non-empty calendar. Times
// within a lap of the cursor have a bucket each, in time order going
// round from the cursor's, so the first occupied bucket whose head is in
// the lap holds the least entry; if none is, the least head is it. (If
// cursor+calBuckets wraps, every head fails the check and the second
// scan still finds the least.)
func (q *calendar) pop() *entry {
	start, lap := uint(q.cursor)%calBuckets, q.cursor+calBuckets
	w := start / 64
	word := q.occ[w] &^ (1<<(start%64) - 1)
	for range len(q.occ) + 1 { // the cursor's word twice: from start up, then below it
		for ; word != 0; word &= word - 1 {
			if b := w*64 + uint(bits.TrailingZeros64(word)); q.buckets[b].t < lap {
				return q.take(b)
			}
		}
		w = (w + 1) % uint(len(q.occ))
		word = q.occ[w]
	}
	var least uint
	var head *entry
	for w, word := range q.occ {
		for ; word != 0; word &= word - 1 {
			b := uint(w*64 + bits.TrailingZeros64(word))
			if h := q.buckets[b]; head == nil || h.less(head) {
				least, head = b, h
			}
		}
	}
	return q.take(least)
}

func (q *calendar) take(b uint) *entry {
	en := q.buckets[b]
	q.buckets[b] = en.next
	if en.next == nil {
		q.occ[b/64] &^= 1 << (b % 64)
	}
	q.cursor = max(q.cursor, en.t)
	q.n--
	return en
}

// newEvent returns an entry for ev from the free list, which grows by a
// slab when empty so that steady-state scheduling allocates nothing.
func (q *calendar) newEvent(t Time, rank uint64, ev Event) *entry {
	if q.free == nil {
		slab := make([]entry, 64)
		for i := range slab {
			slab[i].next, q.free = q.free, &slab[i]
		}
	}
	en := q.free
	q.free = en.next
	*en = entry{t: t, rank: rank, ev: ev}
	return en
}

// release returns a popped event entry to the free list, dropping its
// Event reference.
func (q *calendar) release(en *entry) {
	en.ev, en.next = nil, q.free
	q.free = en
}
