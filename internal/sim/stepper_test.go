package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestStepperDispatchesInline asserts the fast path: a stepper whose
// steps never suspend runs entirely on the acting scheduler coroutine —
// every step inline, every idle park taken without a context switch, and
// no fallbacks at all.
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
// the scheduler role moves to another scheduler coroutine and OTHER
// steppers keep dispatching inline during the suspension — no step ever
// begins on a non-acting host, and each suspension costs exactly one
// context switch to resume the suspended step.
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
			// While a's suspended frames pin their host coroutine, b's
			// activations must still be dispatched inline by its successor.
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
		t.Errorf("fallbacks = %d, suspends = %d; each suspension should cost exactly one resuming switch",
			ds.StepperFallbacks, ds.InlineSuspends)
	}
}

// TestQuiescenceWithMidStepParkedDaemon: a daemon stepper parks mid-step
// and is never unparked, so the run ends while its suspended frames pin
// a scheduler coroutine. Run must still return cleanly (daemons do not
// block completion), stopping that coroutine on the way out.
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

// TestAbortWhileStepperSuspended: a context panics while a stepper is
// suspended mid-step, so the acting scheduler observes the abort and
// ends the run; Run must report the panic and unwind the host's pinned
// frames instead of waiting on them.
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
// slow one suspends mid-flight (so it resumes by a switch to its host
// while another scheduler coroutine holds the role and keeps dispatching
// the others inline), and the same services as plain goroutine contexts,
// which never touch the stepper machinery — and asserts the observed
// (context, time) sequence is identical: which coroutine hosts a step
// can never affect simulated results.
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
		t.Errorf("suspends = %d, resumptions = %d; the scenario must suspend mid-step and resume each on its host",
			ds.InlineSuspends, ds.StepperFallbacks)
	}
}

// TestTwoHostsResumedInEitherOrder suspends two steppers mid-step at the
// same time — each pins the scheduler coroutine that was hosting it, so a
// third one ends up with the role — and resumes them in the order they
// suspended in and in the opposite one. Each resumption must land on the
// right host, each host must hand the conch back to the scheduler that
// dispatched it, and Run must leave none of the three behind.
func TestTwoHostsResumedInEitherOrder(t *testing.T) {
	for _, wakeAt := range [][2]Time{{20, 40}, {40, 20}} {
		t.Run(fmt.Sprintf("a@%d,b@%d", wakeAt[0], wakeAt[1]), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			var log []string
			for node, name := range []string{"a", "b"} {
				s := e.SpawnStepperDaemon(name, func(c *Context) bool {
					c.Park("mid-step") // first activation, t=0: pins the acting scheduler
					log = append(log, fmt.Sprintf("%s@%d", name, c.Time()))
					return false
				}, "idle")
				e.Spawn("wake-"+name, func(c *Context) {
					c.Sleep(wakeAt[node])
					s.Unpark(c.Time())
				})
			}
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			want := []string{"a@20", "b@40"}
			if wakeAt[0] > wakeAt[1] {
				want = []string{"b@20", "a@40"}
			}
			if !slices.Equal(log, want) {
				t.Errorf("resumptions = %v, want %v", log, want)
			}
			if ds := e.DispatchStats(); ds.InlineSuspends != 2 || ds.StepperFallbacks != 2 {
				t.Errorf("suspends = %d, fallbacks = %d, want 2 and 2", ds.InlineSuspends, ds.StepperFallbacks)
			}
			if len(e.scheds) != 3 {
				t.Errorf("%d scheduler coroutines, want 3: two pinned hosts and their successor", len(e.scheds))
			}
			if len(e.idle) != 2 {
				t.Errorf("%d idle scheduler coroutines at the end, want both released hosts", len(e.idle))
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("goroutines: %d before, %d after Run", before, after)
			}
		})
	}
}

// protocolError stands in for a memory system's typed failure.
type protocolError struct{ block int }

func (e *protocolError) Error() string { return fmt.Sprintf("block %d wedged", e.block) }

// TestTypedPanicReachesRunCaller: a body that panics with an error value
// — on a context coroutine, or in a step hosted on a scheduler coroutine
// — surfaces from Run wrapped, not flattened, so callers can errors.As it.
func TestTypedPanicReachesRunCaller(t *testing.T) {
	spawn := map[string]func(*Engine){
		"goroutine context": func(e *Engine) {
			e.Spawn("bomb", func(c *Context) { c.Advance(3); panic(&protocolError{block: 7}) })
		},
		"stepper": func(e *Engine) {
			e.SpawnStepperDaemon("bomb", func(c *Context) bool { c.Advance(3); panic(&protocolError{block: 7}) }, "idle")
		},
	}
	for name, fn := range spawn {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			fn(e)
			err := e.Run()
			var pe *protocolError
			if !errors.As(err, &pe) || pe.block != 7 {
				t.Fatalf("Run = %v, want a wrapped *protocolError for block 7", err)
			}
			if !strings.Contains(err.Error(), `"bomb"`) {
				t.Errorf("error %q does not name the context", err)
			}
		})
	}
}

// TestLazyYieldWaitsForStepBoundary pins LazyYield's contract: timing
// operations inside the step (Advance, Sync, SyncTo, scheduling an
// event) do not take a pending LazyYield — only a quantum yield does,
// and the lazy one rides along with it. Otherwise the reschedule
// happens at the step boundary, without suspending the step, and the
// stepper steps again when next dispatched.
func TestLazyYieldWaitsForStepBoundary(t *testing.T) {
	for _, tc := range []struct {
		name            string
		advance         Time
		steps, suspends uint64
	}{
		{"within the quantum", 1, 2, 0},
		{"across the quantum", 100, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			armed := false
			var steps uint64 // from the armed step on
			s := e.SpawnStepperDaemon("s", func(c *Context) bool {
				if steps > 0 {
					steps++
				}
				if armed {
					armed, steps = false, 1
					c.LazyYield()
					c.Advance(tc.advance)
					c.Sync()
					c.SyncTo(c.Time() + 1)
					e.AfterFrom(1, c.ID(), func() {})
				}
				return false
			}, "idle")
			e.Spawn("driver", func(c *Context) {
				c.Sleep(10) // let s take its first step and go idle
				armed = true
				s.Unpark(c.Time())
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if ds := e.DispatchStats(); steps != tc.steps || ds.InlineSuspends != tc.suspends {
				t.Errorf("steps %d, inline suspends %d; want %d, %d", steps, ds.InlineSuspends, tc.steps, tc.suspends)
			}
		})
	}
}
