package sim

// Barrier models a hardware barrier network (the CM-5-style control
// network both simulated machines in the paper use): n participants
// arrive, and all are released latency cycles after the last arrival.
type Barrier struct {
	n       int
	latency Time

	waiting []*Context
	maxTime Time
	epochs  uint64

	onRelease func(epoch uint64, at Time)
}

// NewBarrier returns a barrier for n participants with the given release
// latency in cycles. The barrier needs nothing from the engine (arrivers
// bring their own context); the parameter stays because benchmark/
// compiles against this signature.
func NewBarrier(_ *Engine, n int, latency Time) *Barrier {
	if n <= 0 {
		panic("sim: barrier requires at least one participant")
	}
	return &Barrier{n: n, latency: latency}
}

// Epochs returns how many times the barrier has completed.
func (b *Barrier) Epochs() uint64 { return b.epochs }

// OnRelease registers fn to run at each barrier release (while holding
// the conch, before any released participant resumes), with the epoch
// just completed and the release time. At that instant every participant
// is suspended at the barrier, so the callback may inspect simulated
// state mid-run — the hook exists for invariant checking in tests. It
// must not advance simulated time.
func (b *Barrier) OnRelease(fn func(epoch uint64, at Time)) { b.onRelease = fn }

// Arrive blocks the calling context until all n participants have
// arrived, then releases everyone at max(arrival times) + latency.
func (b *Barrier) Arrive(c *Context) {
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
	c.Park("barrier(%d/%d)", len(b.waiting), b.n)
}
