package sim

// The heaps below are index-based 4-ary min-heaps (children of i are
// 4i+1..4i+4). Compared to container/heap they avoid the interface{}
// boxing on every Push/Pop (an allocation per scheduled event) and halve
// the tree depth, trading a slightly wider sibling scan on sift-down —
// the classic d-ary trade that favours push-heavy workloads like event
// scheduling. Both orderings are strict total orders, so pop order is
// the unique sorted order and independent of arity.

// evItem is a scheduled occurrence, ordered by the stable key
// (t, origin, per-origin seq); seq is unique per origin, so the key is a
// strict total order that does not depend on the interleaving of
// origins. The (origin, seq) pair is packed into one word — origin+1 in
// the top bits so origin-less events (packedKey's origin -1) sort before
// every node origin, seq below — keeping the item at 32 bytes and the
// comparison at two branches.
type evItem struct {
	t   Time
	key uint64
	ev  Event
}

// evSeqBits is the per-origin sequence field width: 2^40 events per
// origin per run is beyond any simulation this engine will host.
const evSeqBits = 40

// packedKey builds an evItem tie-break key from an origin (-1 for
// origin-less events) and its per-origin sequence number.
func packedKey(origin int, seq uint64) uint64 {
	return uint64(origin+1)<<evSeqBits | seq
}

func evLess(a, b evItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.key < b.key
}

type evHeap struct{ a []evItem }

func (h *evHeap) len() int { return len(h.a) }

func (h *evHeap) push(it evItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !evLess(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *evHeap) pop() evItem {
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = evItem{} // drop the Event reference
	h.a = a[:n]
	a = h.a
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if evLess(a[j], a[m]) {
				m = j
			}
		}
		if !evLess(a[m], a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// ctxLess orders runnable contexts: earliest local time first, compute
// contexts before daemons on ties, then creation order. (time, prio, id)
// is a strict total order because ids are unique.
func ctxLess(a, b *Context) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.id < b.id
}

type ctxHeap struct{ a []*Context }

func (h *ctxHeap) len() int { return len(h.a) }

func (h *ctxHeap) push(c *Context) {
	h.a = append(h.a, c)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ctxLess(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *ctxHeap) pop() *Context {
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = nil
	h.a = a[:n]
	a = h.a
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if ctxLess(a[j], a[m]) {
				m = j
			}
		}
		if !ctxLess(a[m], a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}
