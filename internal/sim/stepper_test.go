package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestStepperDispatchesInline asserts the fast path: a stepper whose
// steps never suspend runs entirely on the scheduler goroutine — every
// step inline, every idle park taken without a goroutine switch, and no
// standby-goroutine fallbacks at all.
func TestStepperDispatchesInline(t *testing.T) {
	e := NewEngine()
	steps := 0
	s := e.SpawnStepperDaemon("s", func(c *Context) bool {
		steps++
		c.Advance(1)
		return false
	}, "idle")
	e.Spawn("driver", func(c *Context) {
		for i := 0; i < 10; i++ {
			s.Unpark(c.Time())
			c.Advance(5)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ds := e.DispatchStats()
	if steps == 0 {
		t.Fatal("stepper never stepped")
	}
	if ds.InlineSteps != uint64(steps) || ds.GoroutineSteps != 0 {
		t.Errorf("steps inline/goroutine = %d/%d, want %d/0", ds.InlineSteps, ds.GoroutineSteps, steps)
	}
	if ds.StepperFallbacks != 0 {
		t.Errorf("stepper fallbacks = %d, want 0", ds.StepperFallbacks)
	}
	if ds.ParksAvoided == 0 {
		t.Error("no parks avoided; idle boundaries went through goroutines")
	}
}

// TestMidStepSuspensionHandsOffScheduler asserts the hand-off: when an
// inline-hosted step is forced to suspend mid-flight (quantum yield),
// the scheduler role moves to a spare goroutine and OTHER steppers keep
// dispatching inline during the suspension — no step ever runs on a
// standby goroutine, and each suspension costs exactly one channel
// resumption of the suspended step.
func TestMidStepSuspensionHandsOffScheduler(t *testing.T) {
	e := NewEngine()
	aSteps, bSteps := 0, 0
	a := e.SpawnStepperDaemon("a", func(c *Context) bool {
		aSteps++
		c.Advance(100) // cross the quantum: the forced yield goes lazy
		c.Advance(1)   // interaction point: materialise it mid-step
		return false
	}, "a idle")
	b := e.SpawnStepperDaemon("b", func(c *Context) bool {
		bSteps++
		c.Advance(1)
		return false
	}, "b idle")
	e.Spawn("driver", func(c *Context) {
		for i := 0; i < 5; i++ {
			a.Unpark(c.Time())
			// While a's suspended frames pin its host goroutine, b's
			// activations must still be dispatched inline by the spare.
			for j := 0; j < 4; j++ {
				b.Unpark(c.Time())
				c.Advance(10)
			}
			c.Advance(200)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ds := e.DispatchStats()
	if aSteps == 0 || bSteps == 0 {
		t.Fatalf("steps a=%d b=%d; scenario exercised nothing", aSteps, bSteps)
	}
	if ds.InlineSuspends == 0 {
		t.Fatal("no mid-step suspensions; the quantum yield never materialised")
	}
	if ds.GoroutineSteps != 0 {
		t.Errorf("goroutine steps = %d, want 0: steps began on a non-scheduler host", ds.GoroutineSteps)
	}
	if ds.InlineSteps != uint64(aSteps+bSteps) {
		t.Errorf("inline steps = %d, want %d", ds.InlineSteps, aSteps+bSteps)
	}
	if ds.StepperFallbacks != ds.InlineSuspends {
		t.Errorf("fallbacks = %d, suspends = %d; each suspension should cost exactly one channel resumption",
			ds.StepperFallbacks, ds.InlineSuspends)
	}
}

// TestQuiescenceWithMidStepParkedDaemon exercises the root-pinned
// unwind: a daemon stepper parks mid-step and is never unparked, so the
// run ends while its suspended frames pin a host goroutine. Run must
// still return cleanly (daemons do not block completion).
func TestQuiescenceWithMidStepParkedDaemon(t *testing.T) {
	e := NewEngine()
	s := e.SpawnStepperDaemon("s", func(c *Context) bool {
		c.Park("stuck mid-step")
		return false
	}, "idle")
	e.Spawn("app", func(c *Context) { c.Advance(1) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.State() != StateParked {
		t.Errorf("daemon state = %v, want parked", s.State())
	}
}

// TestAbortWhileStepperSuspended exercises the abort unwind: a context
// panics while a stepper is suspended mid-step, so the acting scheduler
// observes the abort and the pinned host frames must be abandoned
// without deadlocking Run.
func TestAbortWhileStepperSuspended(t *testing.T) {
	e := NewEngine()
	e.SpawnStepperDaemon("s", func(c *Context) bool {
		c.Advance(100)
		c.Advance(1) // suspends mid-step at t=101
		return false
	}, "idle")
	e.Spawn("bomb", func(c *Context) {
		c.Advance(70) // quantum yield: reschedule at t=70, before s resumes
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run = %v, want the bomb's panic", err)
	}
}

// TestStepperHostChoiceInvariance runs an interleaving-sensitive
// scenario twice — the services as steppers, where every step of the
// slow one suspends mid-flight (so it resumes over the needG channel
// protocol while a spare goroutine holds the scheduler role and keeps
// dispatching the others inline), and the same services as plain goroutine contexts, which never
// touch the stepper machinery — and asserts the observed (context, time)
// sequence is identical: which goroutine hosts a step can never affect
// simulated results.
func TestStepperHostChoiceInvariance(t *testing.T) {
	trace := func(steppers bool) (string, DispatchStats) {
		e := NewEngine()
		var sb strings.Builder
		mk := func(name string, work Time) {
			body := func(c *Context) {
				fmt.Fprintf(&sb, "%s@%d ", name, c.Time())
				c.Advance(work)
				c.Advance(1)
			}
			var s *Context
			if steppers {
				s = e.SpawnStepperDaemon(name, func(c *Context) bool { body(c); return false }, name+" idle")
			} else {
				s = e.SpawnDaemon(name, func(c *Context) {
					for {
						body(c)
						c.Park(name + " idle")
					}
				})
			}
			e.Spawn("drv-"+name, func(c *Context) {
				for i := 0; i < 8; i++ {
					s.Unpark(c.Time())
					c.Advance(13 + work)
				}
			})
		}
		mk("fast", 2)
		mk("slow", 90) // suspends mid-step every activation
		mk("med", 40)
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sb.String(), e.DispatchStats()
	}
	stepped, ds := trace(true)
	plain, _ := trace(false)
	if stepped != plain {
		t.Errorf("step sequences diverge:\n steppers:   %s\n goroutines: %s", stepped, plain)
	}
	if stepped == "" {
		t.Fatal("empty trace; scenario exercised nothing")
	}
	if ds.InlineSuspends == 0 || ds.StepperFallbacks != ds.InlineSuspends {
		t.Errorf("suspends = %d, channel resumptions = %d; the scenario must suspend mid-step and resume each over the channel",
			ds.InlineSuspends, ds.StepperFallbacks)
	}
}
