package sim

import "testing"

// TestAllocFreeEventScheduling asserts the engine's core scheduling
// cycle — AtEvent push, heap pop, Fire — allocates nothing once the heap
// slice has reached its high-water capacity. This is the property the
// 4-ary index heaps exist for: container/heap's interface{} Push boxed
// an allocation onto every scheduled event.
func TestAllocFreeEventScheduling(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev := funcEvent(func() { fired++ }) // one closure, hoisted out of the measured loop

	// Warm the heap past any plausible steady-state depth.
	for i := 0; i < 1024; i++ {
		e.AtEvent(Time(i), ev)
	}
	for e.events.len() > 0 {
		e.events.pop()
	}

	allocs := testing.AllocsPerRun(200, func() {
		e.AtEvent(e.now+100, ev)
		it := e.events.pop()
		it.ev.Fire()
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
	// Contexts are heap nodes only; never dispatch them, just exercise
	// the runnable heap with enough of them to reach steady capacity.
	ctxs := make([]*Context, 128)
	for i := range ctxs {
		ctxs[i] = &Context{eng: e, id: i, time: Time(i)}
	}
	push := func() {
		for _, c := range ctxs {
			e.runnable.push(c)
		}
		for e.runnable.len() > 0 {
			e.runnable.pop()
		}
	}
	push() // reach high-water capacity
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
