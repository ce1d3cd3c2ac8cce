package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestPlanRoundBounds pins the planner's closed-form limit
//
//	limit(x) = min( m_excl(x) + LA,  base(x) + 2·LA,  gBar )
//
// on a hand-built two-shard engine: shard 0's earliest item at 100,
// shard 1's at 130, lookahead 25. Shard 0 is bounded by its own round
// trip (100+50=150, tighter than 130+25=155); shard 1 is bounded by
// shard 0's earliest effect (100+25=125), which lies below its base —
// the idle-shard fast path: it stays ungranted.
func TestPlanRoundBounds(t *testing.T) {
	e := NewEngine(WithShards(2, 2, 10), WithCrossShardDelivery(25))
	e.AtEventFromTo(100, 0, 0, funcEvent(func() {}))
	e.AtEventFromTo(130, 1, 1, funcEvent(func() {}))
	e.prepareWindows()

	e.planRound()
	if len(e.grants) != 1 || e.grants[0] != e.sh[0] {
		t.Fatalf("granted %d shards, want only shard 0", len(e.grants))
	}
	if got := e.sh[0].limit; got != 150 {
		t.Errorf("shard 0 limit = %d, want 150 (base 100 + 2·25 round trip)", got)
	}
	if got := e.sh[1].limit; got != 125 {
		t.Errorf("shard 1 limit = %d, want 125 (m_excl 100 + 25 lookahead)", got)
	}
	ws := e.WindowStats()
	if ws.Grants != 1 || ws.WidthCycles != 50 || ws.Batched != 1 {
		t.Errorf("stats = %+v, want 1 grant of width 50, batched", ws)
	}
}

// TestPlanRoundBarrierBound pins gBar: with every context bound for a
// barrier, no shard's limit may pass the earliest possible release, or
// the release (the one wakeup that is not a timed event) could land
// inside an already-granted window on a shard that merged before it.
func TestPlanRoundBarrierBound(t *testing.T) {
	e := NewEngine(WithShards(2, 2, 10), WithCrossShardDelivery(500))
	b := NewBarrier(e, 2, 12)
	_ = b
	// Both contexts runnable at 0: with a 500-cycle lookahead the
	// delivery terms would allow limits of 1000, but the barrier can
	// release as early as latency cycles after the last arrival, which
	// can happen as soon as both contexts run: gBar = 0 + 12.
	e.SpawnOn(0, "p0", func(c *Context) {})
	e.SpawnOn(1, "p1", func(c *Context) {})
	e.prepareWindows()

	e.planRound()
	if len(e.grants) != 2 {
		t.Fatalf("granted %d shards, want 2", len(e.grants))
	}
	for _, s := range e.sh {
		if s.limit != 12 {
			t.Errorf("shard %d limit = %d, want 12 (barrier release lower bound)", s.id, s.limit)
		}
	}
}

// TestPlanRoundProperty checks the planner's two-sided guarantee over
// randomized shard bases and barrier states. Every limit must be at
// least M+window, M the earliest pending item machine-wide — the
// lockstep bound, computed here from the bases alone — so a round always
// makes the progress a fixed-window plan would; and at most each of the
// three soundness terms of planRound's doc comment, recomputed here from
// the definitions (an O(shards²) min instead of the planner's
// two-smallest scan; the barrier term from a sorted copy instead of the
// in-place k-th-smallest).
func TestPlanRoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		shards := 2 + rng.Intn(3)
		nodes := shards * (1 + rng.Intn(2))
		window := Time(1 + rng.Intn(12))
		la := window + Time(rng.Intn(20))
		barLat := window + Time(rng.Intn(8))
		e := NewEngine(WithShards(shards, nodes, window), WithCrossShardDelivery(la))
		parties := 1 + rng.Intn(nodes)
		b := NewBarrier(e, parties, barLat)

		// One context per node at a random clock: runnable, parked with no
		// wakeup in sight, or already waiting at the barrier (at least one
		// arrival is always missing, as after any real merge). The engine
		// never runs, so the contexts need no goroutines.
		ctxs := make([]*Context, nodes)
		for i := range ctxs {
			ctxs[i] = e.spawn(fmt.Sprintf("p%d", i), false, e.sh[e.ShardOf(i)])
		}
		for _, s := range e.sh {
			s.runnable.a = s.runnable.a[:0]
		}
		arrived := 0
		for _, c := range ctxs {
			c.time = Time(rng.Intn(400))
			switch k := rng.Intn(4); {
			case k == 0 && arrived < parties-1:
				c.state, c.atBarrier = StateParked, b
				b.waiting = append(b.waiting, c)
				if c.time > b.maxTime {
					b.maxTime = c.time
				}
				arrived++
			case k == 1:
				c.state = StateParked
			default:
				c.sh.runnable.push(c)
			}
		}
		// Some shards also hold a pending event; some end up with nothing.
		for i := 0; i < nodes; i++ {
			if rng.Intn(3) == 0 {
				e.AtEventFromTo(Time(rng.Intn(400)), i, i, funcEvent(func() {}))
			}
		}
		e.prepareWindows()
		granted := e.planRound()

		bases := make([]Time, shards)
		m := infTime
		for i, s := range e.sh {
			bases[i] = s.nextTime()
			if bases[i] < m {
				m = bases[i]
			}
		}
		if m == infTime {
			if granted {
				t.Fatalf("trial %d: quiescent machine granted %d windows", trial, len(e.grants))
			}
			continue
		}
		mexcl := func(x int) Time {
			mx := infTime
			for i, bt := range bases {
				if i != x && bt < mx {
					mx = bt
				}
			}
			return mx
		}
		// gBar from the definition: each context that can still arrive does
		// so no earlier than its clock — or, parked, the earliest wakeup
		// its shard could see — and the release needs the k-th of them.
		var ect []Time
		for _, c := range ctxs {
			if c.atBarrier == b {
				continue
			}
			at := c.time
			if c.state == StateParked {
				wake := bases[c.sh.id]
				if w := satAdd(mexcl(c.sh.id), la); w < wake {
					wake = w
				}
				if wake > at {
					at = wake
				}
			}
			ect = append(ect, at)
		}
		sort.Slice(ect, func(i, j int) bool { return ect[i] < ect[j] })
		kth := ect[parties-arrived-1]
		if b.maxTime > kth {
			kth = b.maxTime
		}
		gBar := satAdd(kth, barLat)

		inGrants := make(map[*shard]bool)
		for _, s := range e.grants {
			inGrants[s] = true
		}
		for x, s := range e.sh {
			if s.limit < m+window {
				t.Fatalf("trial %d shard %d: limit %d below the lockstep bound M+window = %d+%d", trial, x, s.limit, m, window)
			}
			for name, term := range map[string]Time{
				"m_excl+LA": satAdd(mexcl(x), la),
				"base+2·LA": satAdd(bases[x], 2*la),
				"gBar":      gBar,
			} {
				if s.limit > term {
					t.Fatalf("trial %d shard %d: limit %d exceeds soundness term %s = %d (bases %v)", trial, x, s.limit, name, term, bases)
				}
			}
			if inGrants[s] != (bases[x] < s.limit) {
				t.Fatalf("trial %d shard %d: granted=%v with base %d, limit %d", trial, x, inGrants[s], bases[x], s.limit)
			}
		}
	}
}

// TestWindowModesEquivalence runs one chaotic barrier workload — uneven
// advances, quantum yields, cross-shard event traffic at exactly the
// delivery lookahead — serially (no planner, no windows) and windowed at
// 2 and 4 shards, and requires identical per-context histories and
// per-node event receipts everywhere. Sends at exactly base+LA are the
// tightest legal lookahead, so a single mis-planned window would trip
// AtEventFromTo's safety panic: completing at all is the property that a
// granted window never admits a cross-shard event inside it.
func TestWindowModesEquivalence(t *testing.T) {
	const nodes, delivery = 4, 17
	type result struct {
		logs [nodes]string
		recv [nodes]Time
	}
	run := func(shards int) result {
		var r result
		e := NewEngine(WithQuantum(8), WithCrossShardDelivery(delivery), WithShards(shards, nodes, 10))
		b := NewBarrier(e, nodes, 11)
		for i := 0; i < nodes; i++ {
			i := i
			e.SpawnOn(i, fmt.Sprintf("p%d", i), func(c *Context) {
				for k := 0; k < 12; k++ {
					c.Advance(Time((i*7+k*3)%13 + 1))
					if k%3 == i%3 {
						c.Yield()
					}
					dest := (i + 1 + k%3) % nodes
					at := c.Time() + delivery
					e.AtEventFromTo(at, i, dest, funcEvent(func() { r.recv[dest] += at }))
					r.logs[i] += fmt.Sprintf("k%d @%d;", k, c.Time())
					b.Arrive(c)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return r
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d diverges from serial:\n got %+v\nwant %+v", shards, got, want)
		}
	}
}

// TestDaemonBarrierArrivePanics pins the sharded barrier's daemon
// restriction: the planner's release bound only scans non-daemon
// contexts, so a daemon arrival would make the bound unsound — Arrive
// refuses it loudly instead.
func TestDaemonBarrierArrivePanics(t *testing.T) {
	e := NewEngine(WithShards(2, 2, 10))
	b := NewBarrier(e, 1, 11)
	e.SpawnDaemon("rogue", func(c *Context) { b.Arrive(c) })
	e.SpawnOn(1, "app", func(c *Context) { c.Advance(30) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "arrived at a sharded barrier") {
		t.Fatalf("err = %v, want daemon-barrier panic", err)
	}
}

// TestWindowStatsAfterRun asserts the telemetry counters describe a real
// sharded run: at least one grant per boundary round, widths never below
// one cycle, and batched a subset of grants.
func TestWindowStatsAfterRun(t *testing.T) {
	e := NewEngine(WithShards(2, 2, 10))
	for i := 0; i < 2; i++ {
		i := i
		e.SpawnOn(i, fmt.Sprintf("p%d", i), func(c *Context) {
			for k := 0; k < 50; k++ {
				c.Advance(Time(i + 3))
				c.Yield()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ws := e.WindowStats()
	if ws.Grants == 0 {
		t.Fatal("sharded run granted no windows")
	}
	if ws.WidthCycles < ws.Grants {
		t.Errorf("width sum %d below grant count %d: zero-width window granted", ws.WidthCycles, ws.Grants)
	}
	if ws.Batched > ws.Grants {
		t.Errorf("batched %d exceeds grants %d", ws.Batched, ws.Grants)
	}
}

// windowGrantEngine builds a four-shard engine mid-plan shape — staggered
// event bases, a barrier whose release bound takes the sort path (more
// live contexts than missing arrivals) — without running it, so a plan
// round can be timed and alloc-checked in isolation.
func windowGrantEngine() *Engine {
	e := NewEngine(WithShards(4, 8, 10), WithCrossShardDelivery(14))
	NewBarrier(e, 6, 12)
	for i := 0; i < 8; i++ {
		e.SpawnOn(i, fmt.Sprintf("p%d", i), func(c *Context) {})
		e.AtEventFromTo(Time(100+13*i), i, i, funcEvent(func() {}))
	}
	e.prepareWindows()
	return e
}

// TestWindowGrantAllocFree guards the planner's hot loop: one plan round
// — base scan, barrier release bound (sort path included), limits and
// grant list — must not allocate, or every window boundary of every
// sharded run pays the garbage collector.
func TestWindowGrantAllocFree(t *testing.T) {
	e := windowGrantEngine()
	if avg := testing.AllocsPerRun(200, func() { e.planRound() }); avg != 0 {
		t.Fatalf("planRound allocates %.1f objects per round, want 0", avg)
	}
}

func BenchmarkWindowGrant(b *testing.B) {
	e := windowGrantEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.planRound()
	}
}
