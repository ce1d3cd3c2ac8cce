package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSingleContextRunsToCompletion(t *testing.T) {
	e := NewEngine()
	var ran bool
	e.Spawn("solo", func(c *Context) {
		c.Advance(10)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("context body did not run")
	}
}

func TestAdvanceAccumulatesTime(t *testing.T) {
	e := NewEngine()
	var final Time
	e.Spawn("clock", func(c *Context) {
		for i := 0; i < 100; i++ {
			c.Advance(3)
		}
		final = c.Time()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if final != 300 {
		t.Fatalf("time = %d, want 300", final)
	}
}

func TestInterleavingIsByLocalTime(t *testing.T) {
	e := NewEngine(WithQuantum(1)) // yield on every advance
	var order []string
	worker := func(name string, step Time, n int) func(*Context) {
		return func(c *Context) {
			for i := 0; i < n; i++ {
				order = append(order, fmt.Sprintf("%s@%d", name, c.Time()))
				c.Advance(step)
			}
		}
	}
	e.Spawn("a", worker("a", 10, 3))
	e.Spawn("b", worker("b", 4, 5))
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a@0", "b@0", "b@4", "b@8", "a@10", "b@12", "b@16", "a@20"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, order[i], want[i], order)
		}
	}
}

func TestTieBreakByContextID(t *testing.T) {
	e := NewEngine(WithQuantum(1))
	var order []int
	for i := 0; i < 4; i++ {
		id := i
		e.Spawn(fmt.Sprintf("c%d", i), func(c *Context) {
			order = append(order, id)
			c.Advance(1)
			order = append(order, id)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventsRunBeforeLaterContexts(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.At(5, func() { trace = append(trace, fmt.Sprintf("ev@%d", e.Now())) })
	e.Spawn("ctx", func(c *Context) {
		c.Sleep(10)
		trace = append(trace, fmt.Sprintf("ctx@%d", c.Time()))
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(trace) != 2 || trace[0] != "ev@5" || trace[1] != "ctx@10" {
		t.Fatalf("trace = %v", trace)
	}
}

// TestQueueOrderIsEventsThenComputeThenDaemons pins the class order of
// the scheduler's one queue through the public API: on one cycle events
// fire first — origin-less ones, then by origin — then compute contexts,
// then daemons, whatever order they were created or scheduled in.
func TestQueueOrderIsEventsThenComputeThenDaemons(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(what string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%d", what, e.Now())) }
	}
	twice := func(what string) func(*Context) {
		return func(c *Context) {
			log(what)()
			c.Sleep(40)
			log(what)()
		}
	}
	// Created in the reverse of the order they must run in, so neither
	// context id nor insertion order can produce it.
	e.SpawnDaemon("daemon", twice("daemon"))
	e.Spawn("compute", twice("compute"))
	for _, at := range []Time{40, 0} {
		e.AtEventFrom(at, 2, funcEvent(log("node2")))
		e.AtEventFrom(at, 0, funcEvent(log("node0")))
		e.At(at, log("anon"))
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "[anon@0 node0@0 node2@0 compute@0 daemon@0 anon@40 node0@40 node2@40 compute@40 daemon@40]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestEventPanicIsRunError: a panic under an event aborts the run with an
// error naming the cycle, like a context's names the context — also when
// a scheduler coroutine is pinned under a suspended step — and an error
// value stays reachable with errors.As.
func TestEventPanicIsRunError(t *testing.T) {
	e := NewEngine()
	e.At(5, func() { panic("boom") })
	if err := e.Run(); err == nil || err.Error() != "sim: event at cycle 5 panicked: boom" {
		t.Fatalf("Run: %v", err)
	}

	e = NewEngine()
	e.SpawnStepperDaemon("np", func(c *Context) bool { c.Park("mid-step"); return false }, "idle")
	e.Spawn("app", func(c *Context) { c.Sleep(20) })
	e.AtEventFrom(9, 3, funcEvent(func() { panic(&protocolError{block: 7}) }))
	err := e.Run()
	var pe *protocolError
	if !errors.As(err, &pe) || pe.block != 7 {
		t.Fatalf("Run: %v, want a wrapped *protocolError for block 7", err)
	}
	if want := "sim: event at cycle 9 panicked: block 7 wedged"; err.Error() != want {
		t.Errorf("Run: %q, want %q", err, want)
	}
}

// TestAtEventFromRefusesBadOrigin: the origin is an index and a field of
// the event's rank; one that is neither names itself in the panic.
func TestAtEventFromRefusesBadOrigin(t *testing.T) {
	for _, origin := range []int{-3, maxOrigins - 1, 1 << 33} {
		func() {
			defer func() {
				want := fmt.Sprintf("sim: event origin %d outside [0, %d)", origin, maxOrigins-1)
				if r := recover(); r != want {
					t.Errorf("origin %d: panic %v, want %q", origin, r, want)
				}
			}()
			NewEngine().AtEventFrom(0, origin, funcEvent(func() {}))
		}()
	}
}

func TestParkUnparkViaEvent(t *testing.T) {
	e := NewEngine()
	var wake Time
	ctx := e.Spawn("sleeper", func(c *Context) {
		c.Park("test")
		wake = c.Time()
	})
	e.At(42, func() { ctx.Unpark(42) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wake != 42 {
		t.Fatalf("woke at %d, want 42", wake)
	}
}

func TestUnparkBeforeParkIsConsumed(t *testing.T) {
	e := NewEngine()
	var wake Time
	var ctx *Context
	ctx = e.Spawn("racer", func(c *Context) {
		// Wakeup is already pending when we park.
		ctx.Unpark(100)
		c.Park("test")
		wake = c.Time()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wake != 100 {
		t.Fatalf("woke at %d, want 100", wake)
	}
}

func TestUnparkNeverMovesClockBackward(t *testing.T) {
	e := NewEngine()
	ctx := e.Spawn("sleeper", func(c *Context) {
		c.Advance(50)
		c.Park("test")
		if c.Time() != 50 {
			t.Errorf("time moved to %d, want 50", c.Time())
		}
	})
	e.At(10, func() { ctx.Unpark(10) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(c *Context) { c.Park("forever") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestDeadlockReportText pins the deadlock message: every blocked context
// by name, time, state and park reason, sorted — a barrier one arriver
// short renders its arrival count, a constant reason prints as given, a
// format with one operand as tsync's fetch-and-add gives it.
func TestDeadlockReportText(t *testing.T) {
	e := NewEngine()
	bar := NewBarrier(e, 2, 11)
	e.Spawn("cpu0", func(c *Context) {
		c.Advance(5)
		bar.Arrive(c)
	})
	e.Spawn("cpu1", func(c *Context) {
		c.Advance(9)
		c.Park("await pong")
	})
	e.Spawn("cpu2", func(c *Context) { c.Park("fetch-add %d", 2) })
	const want = "sim: deadlock at cycle 0; blocked contexts: cpu0@5(parked: barrier(1/2)), cpu1@9(parked: await pong), cpu2@0(parked: fetch-add 2)"
	if err := e.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}

func TestDaemonDoesNotBlockCompletion(t *testing.T) {
	e := NewEngine()
	e.SpawnDaemon("np", func(c *Context) {
		for {
			c.Park("idle")
		}
	})
	e.Spawn("app", func(c *Context) { c.Advance(5) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDaemonDrainsRunnableWorkBeforeShutdown(t *testing.T) {
	e := NewEngine()
	var drained bool
	d := e.SpawnDaemon("np", func(c *Context) {
		c.Park("idle")
		c.Advance(100)
		drained = true
		c.Park("idle")
	})
	e.Spawn("app", func(c *Context) {
		c.Advance(5)
		d.Unpark(c.Time())
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !drained {
		t.Fatal("daemon work scheduled before app exit was not drained")
	}
}

func TestContextPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomb", func(c *Context) { panic("boom") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking context")
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine()
	var childTime Time
	e.Spawn("parent", func(c *Context) {
		c.Advance(7)
		c.Yield() // give engine a consistent now
		e.Spawn("child", func(c2 *Context) {
			childTime = c2.Time()
		})
		c.Advance(1)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if childTime < 7 {
		t.Fatalf("child started at %d, want >= 7", childTime)
	}
}

// TestSpawnMidRunStartsAtNow: a context spawned by a running context
// starts at the spawner's clock, not at the time the spawner was last
// dispatched.
func TestSpawnMidRunStartsAtNow(t *testing.T) {
	e := NewEngine()
	var now, childTime Time
	e.Spawn("parent", func(c *Context) {
		c.Advance(10)
		c.Yield()
		c.Advance(50)
		now = e.Now()
		e.Spawn("child", func(c2 *Context) { childTime = c2.Time() })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if now != 60 || childTime != 60 {
		t.Fatalf("spawned with Now() = %d, child started at %d; want 60 and 60", now, childTime)
	}
}

func TestEngineCannotRunTwice(t *testing.T) {
	e := NewEngine()
	e.Spawn("x", func(c *Context) {})
	if err := e.Run(); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestBarrierReleasesAllAtMaxPlusLatency(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 3, 11)
	releases := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(c *Context) {
			c.Advance(Time(10 * (i + 1))) // arrivals at 10, 20, 30
			b.Arrive(c)
			releases[i] = c.Time()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range releases {
		if r != 41 {
			t.Fatalf("p%d released at %d, want 41 (max arrival 30 + latency 11)", i, r)
		}
	}
	if b.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", b.Epochs())
	}
}

func TestBarrierReusableAcrossEpochs(t *testing.T) {
	e := NewEngine()
	const n, iters = 4, 5
	b := NewBarrier(e, n, 11)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(c *Context) {
			for k := 0; k < iters; k++ {
				c.Advance(Time(1 + i))
				b.Arrive(c)
				counts[i]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, ct := range counts {
		if ct != iters {
			t.Fatalf("p%d completed %d epochs, want %d", i, ct, iters)
		}
	}
	if b.Epochs() != iters {
		t.Fatalf("epochs = %d, want %d", b.Epochs(), iters)
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 1, 11)
	var after Time
	e.Spawn("solo", func(c *Context) {
		c.Advance(10)
		b.Arrive(c)
		after = c.Time()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after != 21 {
		t.Fatalf("released at %d, want 21", after)
	}
}

// TestDeterminism runs the same chaotic workload twice and requires an
// identical event order.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(WithQuantum(8))
		var log []string
		b := NewBarrier(e, 3, 11)
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(c *Context) {
				for k := 0; k < 10; k++ {
					c.Advance(Time((i*7+k*3)%13 + 1))
					if k%3 == i%3 {
						c.Yield()
					}
					log = append(log, fmt.Sprintf("p%d k%d @%d", i, k, c.Time()))
					b.Arrive(c)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of event times, events fire in nondecreasing time
// order and the engine clock never runs backward.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			d := Time(d)
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		e.Spawn("idle", func(c *Context) {})
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with any number of participants and arrival offsets, a barrier
// releases everyone at the same cycle, equal to max arrival + latency.
func TestBarrierReleaseProperty(t *testing.T) {
	f := func(offsets []uint8, latency uint8) bool {
		if len(offsets) == 0 || len(offsets) > 32 {
			return true
		}
		e := NewEngine()
		b := NewBarrier(e, len(offsets), Time(latency))
		releases := make([]Time, len(offsets))
		var maxArrival Time
		for i, off := range offsets {
			if Time(off) > maxArrival {
				maxArrival = Time(off)
			}
			i, off := i, Time(off)
			e.Spawn(fmt.Sprintf("p%d", i), func(c *Context) {
				c.Advance(off)
				b.Arrive(c)
				releases[i] = c.Time()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		want := maxArrival + Time(latency)
		for _, r := range releases {
			if r != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestNoGoroutineLeakAfterRun: an engine owns no goroutine outside Run.
// Contexts get their coroutines at first dispatch, and Run stops every
// coroutine it started before it returns, so the count is back where it
// was the moment Run returns — nothing exits asynchronously.
func TestNoGoroutineLeakAfterRun(t *testing.T) {
	parkedDaemon := func(c *Context) {
		for {
			c.Park("idle")
		}
	}
	cases := map[string]func(t *testing.T, e *Engine){
		"daemons parked at the end": func(t *testing.T, e *Engine) {
			for i := 0; i < 8; i++ {
				e.SpawnDaemon(fmt.Sprintf("d%d", i), parkedDaemon)
			}
			e.Spawn("app", func(c *Context) { c.Advance(1) })
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		},
		"engine never run": func(t *testing.T, e *Engine) {
			e.SpawnDaemon("d", parkedDaemon)
			e.Spawn("app", func(c *Context) { c.Advance(1) })
		},
		"second Run refused": func(t *testing.T, e *Engine) {
			e.Spawn("app", func(c *Context) { c.Advance(1) })
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			e.SpawnDaemon("late", parkedDaemon)
			if err := e.Run(); err == nil {
				t.Fatal("second Run should fail")
			}
		},
		"daemon stepper suspended mid-step": func(t *testing.T, e *Engine) {
			// The step's frames pin a scheduler coroutine to the end.
			e.SpawnStepperDaemon("s", func(c *Context) bool {
				c.Park("stuck mid-step")
				return false
			}, "idle")
			e.Spawn("app", func(c *Context) { c.Advance(1) })
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		},
		"event panics on the scheduler": func(t *testing.T, e *Engine) {
			// The run aborts with the event's panic as its error; the
			// daemon and the sleeping app are stopped all the same.
			e.SpawnDaemon("d", parkedDaemon)
			e.Spawn("app", func(c *Context) { c.Sleep(10) })
			e.At(5, func() { panic("bad event") })
			if err := e.Run(); err == nil || err.Error() != "sim: event at cycle 5 panicked: bad event" {
				t.Errorf("Run: %v, want the event's panic", err)
			}
		},
		"deadlocked context": func(t *testing.T, e *Engine) {
			e.Spawn("stuck", func(c *Context) { c.Park("forever") })
			if err := e.Run(); err == nil {
				t.Fatal("expected deadlock error")
			}
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			fn(t, NewEngine())
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("goroutines: %d before, %d after", before, after)
			}
		})
	}
}

func TestNowTracksRunningContext(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.Spawn("worker", func(c *Context) {
		c.Advance(40)
		// After must be relative to the context's advanced clock, not
		// its dispatch time.
		e.After(10, func() { fired = e.Now() })
		c.Advance(5)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 50 {
		t.Fatalf("event fired at %d, want 50 (40 advanced + 10 delay)", fired)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateNew: "new", StateRunnable: "runnable", StateRunning: "running",
		StateParked: "parked", StateDone: "done", State(99): "invalid",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestQuantumOption(t *testing.T) {
	e := NewEngine(WithQuantum(7))
	if e.Quantum() != 7 {
		t.Fatalf("quantum = %d", e.Quantum())
	}
	d := NewEngine(WithQuantum(0))
	if d.Quantum() != DefaultQuantum {
		t.Fatalf("zero quantum should keep default, got %d", d.Quantum())
	}
}

func TestQuantumForcesYield(t *testing.T) {
	e := NewEngine(WithQuantum(10))
	var interleaved bool
	e.Spawn("a", func(c *Context) {
		for i := 0; i < 100; i++ {
			c.Advance(1)
		}
	})
	e.Spawn("b", func(c *Context) {
		// If a never yielded, b would only run after a finished (time 100).
		if c.Time() < 100 {
			interleaved = true
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !interleaved {
		t.Fatal("quantum did not force interleaving")
	}
}

func TestSyncToNeverMovesBackward(t *testing.T) {
	e := NewEngine()
	e.Spawn("x", func(c *Context) {
		c.Advance(50)
		c.SyncTo(30)
		if c.Time() != 50 {
			t.Errorf("SyncTo moved clock backward to %d", c.Time())
		}
		c.SyncTo(80)
		if c.Time() != 80 {
			t.Errorf("SyncTo failed to advance: %d", c.Time())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
