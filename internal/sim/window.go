package sim

import "slices"

// outItem is a cross-shard event staged in the producing shard's outbox
// until the round's merge pushes it into the destination shard's heap at
// the window boundary.
type outItem struct {
	sh int32 // destination shard
	it evItem
}

// prepareWindows sets up round state at Run start. A serial engine gets
// its one round — the single shard's unbounded window (limit infTime) —
// queued for good. A sharded engine builds the planner's scratch: the
// non-daemon context list the barrier bound scans, its ect scratch
// buffer, and an empty grant queue, so drive plans round zero first.
// Sharded engines forbid mid-run spawns, so the list is complete at Run
// start and planning rounds stay allocation-free.
func (e *Engine) prepareWindows() {
	if len(e.sh) == 1 {
		e.grants = e.sh
		return
	}
	for _, c := range e.contexts {
		if !c.daemon {
			e.nonDaemons = append(e.nonDaemons, c)
		}
	}
	e.ectScratch = make([]Time, 0, len(e.nonDaemons))
	e.grants = make([]*shard, 0, len(e.sh))
}

// drive is the acting scheduler's loop: run the round's granted windows
// in shard order, then merge and plan the next round, repeating until
// the run ends (returns false) or until a mid-step suspension cost this
// coroutine the scheduler role (returns true; see runWindow). nextGrant
// moves on only once a window is exhausted, so the scheduler coroutine
// that takes over continues the interrupted window.
func (e *Engine) drive() (lost bool) {
	for {
		for e.nextGrant < len(e.grants) {
			if e.grants[e.nextGrant].runWindow() {
				return true
			}
			e.nextGrant++
		}
		if !e.nextRound() {
			return false
		}
	}
}

// nextRound runs one boundary round: merge the finished windows'
// cross-shard effects, plan the next round, and queue the granted shards
// to run in shard order. It reports false when the run is over: an
// abort, a serial engine's only window exhausted, or nothing grantable
// (quiescence). The acting scheduler owns every shard's state throughout.
func (e *Engine) nextRound() bool {
	e.mergeBoundary()
	if e.abort != nil || len(e.sh) == 1 || !e.planRound() {
		return false
	}
	e.nextGrant = 0
	return true
}

// mergeBoundary integrates one round's cross-shard effects while the
// acting scheduler owns every shard's conch: outbox events are pushed
// into their destination heaps (the stable event key already fixes the
// fire order, so insertion order is immaterial), completed barriers
// release their waiters, and shard aborts fold — by shard id, so the
// reported error is deterministic — into the engine abort.
func (e *Engine) mergeBoundary() {
	for _, s := range e.sh {
		for i, o := range s.outbox {
			e.sh[o.sh].events.push(o.it)
			s.outbox[i] = outItem{} // drop the Event reference
		}
		s.outbox = s.outbox[:0]
		if s.abort != nil && e.abort == nil {
			e.abort = s.abort
		}
	}
	if e.abort != nil {
		return
	}
	for _, b := range e.barriers {
		b.mergeStaged()
	}
}

// satAdd is saturating Time addition: sums that would wrap pin to
// infTime (an unbounded limit), keeping infTime a fixed point.
func satAdd(a, b Time) Time {
	if c := a + b; c >= a {
		return c
	}
	return infTime
}

// planRound computes every shard's next window limit and refills the
// round's grant queue with the granted shards, in shard order; it
// reports whether anything was granted. Runs with every shard's state
// owned, and allocation-free (BenchmarkWindowGrant pins that).
//
// Each shard x is granted the closed-form bound
//
//	limit(x) = min( m_excl(x) + LA,  base(x) + 2·LA,  gBar )
//
// where base(s) is shard s's earliest pending item, m_excl(x) the
// smallest base over the other shards, LA the cross-shard delivery
// lookahead, and gBar a lower bound on the earliest upcoming barrier
// release (releaseLB). Soundness: anything another shard does happens at
// or after its base, so its earliest effect on x is a delivery at
// m_excl(x)+LA; x's own actions (at ≥ base(x)) can come back to x only
// via a round trip through some other shard, ≥ base(x)+2·LA — which also
// bounds the case where every other shard is idle (m_excl = ∞) without
// letting x run unboundedly; and barrier releases, the one wakeup that
// is not a timed event, are bounded below by gBar for every shard, so no
// shard's processed frontier can pass a release it has not seen. Every
// term is ≥ M + window, M the earliest pending item machine-wide (ect
// and base are ≥ M; LA ≥ window; barrier latency ≥ window), so a grant
// is never narrower than the lockstep window [M, M+window) — the
// progress guarantee — and usually wider, so rounds are fewer.
func (e *Engine) planRound() bool {
	e.grants = e.grants[:0]
	// Two-smallest scan of the shard bases: m1 the global minimum M (held
	// by shard i1), m2 the runner-up, so m_excl(x) is m2 for x == i1 and
	// m1 otherwise (ties make them equal, either is correct).
	m1, m2 := infTime, infTime
	i1 := -1
	for _, s := range e.sh {
		b := s.nextTime()
		s.base = b
		if b < m1 {
			m1, m2, i1 = b, m1, s.id
		} else if b < m2 {
			m2 = b
		}
	}
	if m1 == infTime {
		return false // quiescent (or deadlocked) machine-wide
	}
	la := e.minDelivery
	gBar := infTime
	for _, b := range e.barriers {
		if lb := e.releaseLB(b, m1, m2, i1, la); lb < gBar {
			gBar = lb
		}
	}
	for _, s := range e.sh {
		mx := m1
		if s.id == i1 {
			mx = m2
		}
		limit := satAdd(mx, la)
		if rt := satAdd(s.base, 2*la); rt < limit {
			limit = rt
		}
		if gBar < limit {
			limit = gBar
		}
		s.limit = limit
		// Idle shards (nothing before their bound) are skipped: a shard
		// quiescent until T simply reports T as its base and stays
		// ungranted until some bound passes T.
		if s.base < limit {
			e.grants = append(e.grants, s)
			width := uint64(limit - s.base)
			e.winGrants++
			e.winWidthSum += width
			if width >= uint64(2*e.window) {
				e.winBatched++
			}
		}
	}
	return len(e.grants) > 0
}

// releaseLB lower-bounds barrier b's next release time: the release
// fires latency cycles after the last of its n arrivals, so with k
// arrivals still missing it cannot fire before (k-th smallest earliest
// arrival among the contexts that could still arrive, or the latest
// already-staged arrival if later) + latency. A context's earliest
// arrival (ect) is its own clock, pushed out for parked contexts to the
// earliest wakeup the machine could deliver: the shard's own next item,
// a cross-shard delivery at m_excl+LA, or — for a context waiting at a
// different barrier — that barrier's own release lower bound.
func (e *Engine) releaseLB(b *Barrier, m1, m2 Time, i1 int, la Time) Time {
	// Planning runs after mergeStaged, so this boundary's arrivals are
	// already folded into waiting (and a complete barrier has released
	// and reset), leaving k ≥ 1 arrivals outstanding.
	k := b.n - len(b.waiting)
	ect := e.ectScratch[:0]
	for _, c := range e.nonDaemons {
		if c.atBarrier == b || c.state == StateDone {
			continue
		}
		t := c.time
		if c.state == StateParked {
			s := c.sh
			wake := s.base
			mx := m1
			if s.id == i1 {
				mx = m2
			}
			if w := satAdd(mx, la); w < wake {
				wake = w
			}
			if ob := c.atBarrier; ob != nil {
				// Waiting at another barrier: woken by its release, which
				// fires ≥ latency after its last arrival (≥ M, and ≥ the
				// arrivals it has already staged).
				r := m1
				if ob.maxTime > r {
					r = ob.maxTime
				}
				if r = satAdd(r, ob.latency); r < wake {
					wake = r
				}
			}
			if wake > t {
				t = wake
			}
		}
		ect = append(ect, t)
	}
	if len(ect) < k {
		return infTime // cannot complete: not enough live arrivers
	}
	var kth Time
	if len(ect) == k {
		// Every live context must arrive (the common compute-phase case):
		// the k-th smallest is the maximum, no sort needed.
		for _, t := range ect {
			if t > kth {
				kth = t
			}
		}
	} else {
		slices.Sort(ect) // in-place on the scratch: allocation-free
		kth = ect[k-1]
	}
	if b.maxTime > kth {
		kth = b.maxTime
	}
	return satAdd(kth, b.latency)
}
