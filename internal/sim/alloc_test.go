package sim

import "testing"

// TestAllocFreeEventScheduling asserts the engine's core scheduling
// cycle — AtEvent push, queue pop, Fire — allocates nothing once the
// event free list has reached its high-water size: a popped entry is
// released to the list and the next AtEvent takes it back.
func TestAllocFreeEventScheduling(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev := funcEvent(func() { fired++ }) // one closure, hoisted out of the measured loop

	// Warm the free list past any plausible steady-state depth.
	for i := 0; i < 1024; i++ {
		e.AtEvent(Time(i), ev)
	}
	for e.queue.n > 0 {
		e.queue.release(e.queue.pop())
	}

	allocs := testing.AllocsPerRun(200, func() {
		e.AtEvent(e.now+100, ev)
		it := e.queue.pop()
		it.ev.Fire()
		e.queue.release(it)
	})
	if allocs != 0 {
		t.Errorf("event schedule/dispatch cycle allocates %.1f times per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("measured events never fired")
	}
}

// TestAllocFreeContextScheduling asserts that making a context runnable
// and popping it back off the run queue allocates nothing.
func TestAllocFreeContextScheduling(t *testing.T) {
	e := NewEngine()
	// Contexts are queue entries only; never dispatch them, just exercise
	// the queue with enough of them to cover every bucket walk.
	ctxs := make([]*Context, 128)
	for i := range ctxs {
		ctxs[i] = &Context{eng: e, id: i, time: Time(i)}
		ctxs[i].ent = entry{rank: ctxRank(0, i), ctx: ctxs[i]}
	}
	push := func() {
		for _, c := range ctxs {
			c.makeRunnable()
		}
		for e.queue.n > 0 {
			e.queue.pop()
		}
	}
	push()
	if allocs := testing.AllocsPerRun(50, push); allocs != 0 {
		t.Errorf("runnable push/pop cycle allocates %.1f times per run, want 0", allocs)
	}
}

// TestAllocFreeParkUnpark asserts a steady-state Park/Unpark round trip
// between two goroutine contexts — two dispatches, four coroutine
// switches — allocates nothing: the coroutines exist after the first
// dispatch, a switch carries no value worth boxing, and a park reason
// with operands is only rendered by a deadlock report.
func TestAllocFreeParkUnpark(t *testing.T) {
	e := NewEngine()
	var ping *Context
	pong := e.SpawnDaemon("pong", func(c *Context) {
		for {
			c.Park("pong")
			ping.Unpark(c.Time())
		}
	})
	allocs := -1.0
	ping = e.Spawn("ping", func(c *Context) {
		trips := 0
		trip := func() {
			pong.Unpark(c.Time())
			trips++
			c.Park("ping %d of %d", trips, 201) // operands are stored, not formatted
		}
		trip() // pong's first dispatch creates its coroutine
		allocs = testing.AllocsPerRun(200, trip)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Errorf("Park/Unpark round trip allocates %.1f times per run, want 0", allocs)
	}
	if ds := e.DispatchStats(); ds.GoroutineSwitches < 400 {
		t.Errorf("%d context switches; the measured loop never switched", ds.GoroutineSwitches)
	}
}
