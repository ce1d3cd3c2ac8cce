package sim

import "fmt"

// Barrier models a hardware barrier network (the CM-5-style control
// network both simulated machines in the paper use): n participants
// arrive, and all are released latency cycles after the last arrival.
//
// Under sharded execution the barrier is a cross-shard interaction, so
// arrivals are staged per shard and folded by the round's merge at each
// window boundary; the release time — max(arrival times) + latency — and
// every released context's runnable key are identical to the serial
// computation, because both are functions of the arrival times alone.
// The barrier latency must therefore be at least the engine's lookahead
// window (the machine configures the window as the minimum of the two).
type Barrier struct {
	eng     *Engine
	n       int
	latency Time

	waiting []*Context
	maxTime Time
	epochs  uint64

	// staged holds this window's arrivals per shard (sharded engines
	// only; nil on serial engines). Arrivers always park and the round's
	// merge releases them at a boundary.
	staged [][]*Context

	onRelease func(epoch uint64, at Time)
}

// NewBarrier returns a barrier for n participants with the given release
// latency in cycles. On a sharded engine the barrier registers itself
// with the window planner; create barriers before Run.
func NewBarrier(eng *Engine, n int, latency Time) *Barrier {
	if n <= 0 {
		panic("sim: barrier requires at least one participant")
	}
	b := &Barrier{eng: eng, n: n, latency: latency}
	if eng.Shards() > 1 {
		if latency < eng.window {
			panic("sim: barrier latency below the engine's lookahead window")
		}
		b.staged = make([][]*Context, eng.Shards())
		eng.barriers = append(eng.barriers, b)
	}
	return b
}

// Epochs returns how many times the barrier has completed.
func (b *Barrier) Epochs() uint64 { return b.epochs }

// OnRelease registers fn to run at each barrier release (while holding
// the conch, before any released participant resumes), with the epoch
// just completed and the release time. At that instant every participant
// is suspended at the barrier, so the callback may inspect simulated
// state mid-run — the hook exists for invariant checking in tests. It
// must not advance simulated time. On a sharded engine the callback runs
// in the round's merge at a window boundary: the release values are
// identical to serial, but other contexts may have run further into the
// window than they would have at the serial release instant.
func (b *Barrier) OnRelease(fn func(epoch uint64, at Time)) { b.onRelease = fn }

// Arrive blocks the calling context until all n participants have
// arrived, then releases everyone at max(arrival times) + latency.
func (b *Barrier) Arrive(c *Context) {
	if b.staged != nil {
		// Sharded: stage the arrival for the round's merge and park. The
		// release (at the boundary) recomputes maxTime from the staged
		// arrivals, so nothing else is recorded here. The window planner
		// lower-bounds the release from the non-daemon contexts that have
		// not yet arrived, so daemons may not participate — a daemon's
		// arrival would be invisible to the bound.
		if c.daemon {
			panic(fmt.Sprintf("sim: daemon context %q arrived at a sharded barrier", c.name))
		}
		b.staged[c.sh.id] = append(b.staged[c.sh.id], c)
		c.atBarrier = b
		c.Park(fmt.Sprintf("barrier(%d)", b.n))
		return
	}
	if c.time > b.maxTime {
		b.maxTime = c.time
	}
	if len(b.waiting) == b.n-1 {
		release := b.maxTime + b.latency
		for _, w := range b.waiting {
			w.Unpark(release)
		}
		b.waiting = b.waiting[:0]
		b.maxTime = 0
		b.epochs++
		if b.onRelease != nil {
			b.onRelease(b.epochs, release)
		}
		if release > c.time {
			c.time = release
		}
		c.Yield()
		return
	}
	b.waiting = append(b.waiting, c)
	c.Park(fmt.Sprintf("barrier(%d/%d)", len(b.waiting), b.n))
}

// mergeStaged folds one window's staged arrivals into the barrier and,
// if every participant has arrived, releases them. Called by the round's
// merge between windows, conch-held on every shard. At most one
// epoch can complete per boundary: an epoch's arrivals all require the
// previous epoch's release, which itself happens at a boundary.
func (b *Barrier) mergeStaged() {
	for i := range b.staged {
		for _, c := range b.staged[i] {
			if c.time > b.maxTime {
				b.maxTime = c.time
			}
			b.waiting = append(b.waiting, c)
		}
		b.staged[i] = b.staged[i][:0]
	}
	if len(b.waiting) < b.n {
		return
	}
	if len(b.waiting) > b.n {
		panic("sim: barrier overfull")
	}
	release := b.maxTime + b.latency
	for _, w := range b.waiting {
		// Unpark from the merge: the acting scheduler holds every shard's
		// conch between windows, so pushing the context onto its shard's
		// runnable heap is safe, and the runnable key (release, prio,
		// id) matches the serial release exactly. The release time is
		// never below any limit the planner has granted — every granted
		// bound is capped by releaseLB, which lower-bounds this very
		// value — so no shard's processed frontier has passed it.
		w.atBarrier = nil
		w.Unpark(release)
	}
	b.waiting = b.waiting[:0]
	b.maxTime = 0
	b.epochs++
	if b.onRelease != nil {
		b.onRelease(b.epochs, release)
	}
}
