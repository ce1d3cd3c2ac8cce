// Package sim provides a deterministic, cooperative discrete-event engine.
//
// The engine plays the role the Wisconsin Wind Tunnel plays in the paper:
// it hosts one context per simulated instruction stream (a compute
// processor's thread, a network-interface processor's dispatch loop) and
// interleaves them in global cycle order. Exactly one context runs at a
// time (cooperative "conch" scheduling), so simulated state needs no
// locking and every run of the same configuration is bit-identical.
//
// Contexts account for their own local time with Advance and interact with
// the rest of the machine only at explicit points: Yield, Park/Unpark, and
// timed events. Between interaction points a context may run ahead of the
// global clock by at most the engine's quantum, mirroring the
// direct-execution style of execution-driven simulators.
//
// Contexts come in two kinds. A goroutine context (Spawn, SpawnDaemon)
// hosts an arbitrary body — direct-execution application code — on a
// coroutine of its own (iter.Pull), created at its first dispatch:
// dispatching it is one coroutine switch into the body and suspending one
// switch back, a direct hand-off between two goroutines that never goes
// through the Go scheduler. A stepper context (SpawnStepperDaemon) is a
// run-to-completion dispatch loop — the WWT
// lineage's "protocol handlers are events, not threads" — that the
// scheduler invokes inline as a function call, with no switch at all.
//
// The scheduler loop itself runs on scheduler coroutines, resumed from a
// small trampoline on Run's goroutine. When an inline-hosted step must
// suspend mid-flight (a materialised quantum yield, or a blocking wait),
// the acting scheduler coroutine yields to the trampoline with the
// step's frames still on its stack and stays behind as the step's host;
// the trampoline resumes an idle scheduler coroutine (or a new one) to
// carry on, so every other stepper keeps dispatching inline, and
// whichever scheduler later dispatches the suspended step resumes its
// host and gets control back when the activation ends. Run stops every
// coroutine it started before it returns, so an engine leaves no
// goroutine behind — one that never runs never starts any. All hosts
// drive the identical state machine (same runnable pushes, same
// park/unpark transitions, same clock updates), so which coroutine hosts
// a step cannot affect simulated results.
//
// Determinism rests on the one ordering the simulation can observe being
// a strict total order: every pending entry, runnable context or event,
// carries the key (time, rank) — an event's rank is (origin, per-origin
// sequence), whose components depend only on the originating node's own
// history, a context's is (class, id), above every event's — and the
// scheduler pops entries in exactly that order. The bench digests and the
// conformance corpus are functions of it.
//
// The entries live in one 256-bucket calendar queue (calendar.go): bucket
// t mod 256 is a list sorted by the key, and a pop takes the head of the
// first occupied bucket, going round from the time last popped, whose
// head is due within one lap of it. Within a lap distinct times have
// distinct buckets in time order, and each bucket is sorted, so that head
// is the least entry; when no head is within the lap, the least head is.
// Either way the pop order is the sorted order of a strict total order,
// which no layout — bucket count included — can change. The size fits the
// traffic, counted over one pass of each simulating benchmark workload
// (far: pushes 256 or more cycles past the cursor; stale: before it; walk:
// mean entries passed to reach the place in the bucket):
//
//	workload             pushes     most pending  far  stale  walk
//	hit_path               930,393  18            0    0      0.48
//	miss_path            1,990,655  24            0    0      0.14
//	miss_path_contended  2,652,656  23            0    0      0.12
//	fig_large            3,296,624  42            0    0      0.35
//
// Scheduling is allocation-free on the steady-state path: a context
// embeds its entry, event entries recycle through an engine-owned free
// list, and events are stored as Event interface values (pointer-shaped,
// so scheduling a *T or a func boxes nothing).
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is a simulated clock value in processor cycles.
type Time uint64

// DefaultQuantum bounds how far a context may run ahead of its last yield
// before it is forced back through the scheduler. It exceeds the
// 11-cycle network latency (Table 2), the lookahead the Wisconsin Wind
// Tunnel bounds its quantum by, so a context can run past a message it
// would have seen at a smaller quantum: results depend on the quantum
// (Stache cycles at reduced scale move by up to 6.4% between 64 and 11,
// DESIGN.md §6). A smaller quantum costs more context switches.
const DefaultQuantum Time = 64

// Event is a scheduled occurrence. Fire runs on the scheduler with the
// conch held (no context is running) and must not block. Implementing
// Fire on a pointer type lets callers schedule it with AtEvent/AfterEvent
// without allocating: pointer-shaped values box into the interface for
// free.
type Event interface{ Fire() }

// funcEvent adapts a plain callback to Event. Func values are
// pointer-shaped, so this conversion does not allocate either.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// DispatchStats counts how the engine moved control between contexts.
// Inline dispatches and avoided parks are the stepper win: activations
// that cost a function call instead of a context switch.
type DispatchStats struct {
	// InlineDispatches counts stepper activations executed inline on the
	// acting scheduler coroutine (zero context switches).
	InlineDispatches uint64
	// GoroutineSwitches counts context switches — a coroutine switch into
	// the dispatched context and one back: every goroutine context
	// activation plus stepper fallbacks.
	GoroutineSwitches uint64
	// StepperFallbacks counts stepper dispatches that cost a context
	// switch: resumptions of a step suspended mid-flight on the scheduler
	// coroutine that hosted it.
	StepperFallbacks uint64
	// ParksAvoided counts idle parks taken inline: the stepper went idle
	// without suspending any frames, and its next activation needs no
	// context switch either.
	ParksAvoided uint64
	// InlineSteps counts handler steps executed inline (several steps can
	// run back-to-back within one inline dispatch).
	InlineSteps uint64
	// GoroutineSteps counts handler steps begun on a host coroutine after
	// a mid-step suspension.
	// InlineSteps+GoroutineSteps is the total number of protocol
	// dispatches (paper §5.1: one step = one message, fault, or bulk
	// chunk dispatched by the NP loop).
	GoroutineSteps uint64
	// InlineSuspends counts inline steps that suspended mid-step (a
	// materialised quantum yield or a blocking wait): each hands the
	// scheduler role to another scheduler coroutine so other steppers
	// keep dispatching inline.
	InlineSuspends uint64
}

// Engine schedules contexts and timed events in global cycle order. All
// of its fields are owned by whichever coroutine holds the conch, which
// moves with every coroutine switch.
type Engine struct {
	quantum  Time
	contexts []*Context

	now   Time
	queue calendar // runnable contexts and pending events

	running *Context
	// inline is the stepper whose activation is currently executing on
	// the acting scheduler coroutine, nil when none is. It is cleared the
	// moment such an activation suspends mid-step: the coroutine gives up
	// the scheduler role (Context.suspend) and stays behind as the
	// suspended step's host.
	inline *Context

	// schedGen increments at each such hand-off; a scheduler loop that
	// observes a generation newer than its own has lost the role.
	schedGen uint64

	dstats DispatchStats
	abort  error // first panic captured from a context or an event

	// Event tie-break state. Events carry a stable key (time, origin,
	// per-origin sequence): evSeqs[i] counts events scheduled by origin i
	// (a simulated node), and evSeqAnon counts origin-less events
	// (AtEvent/At/After — engine tests and other non-node callers, which
	// sort before every node origin at equal times). The key is a pure
	// function of each origin's own scheduling history — unlike a global
	// insertion sequence, which would encode the interleaving of the
	// whole machine.
	evSeqs    []uint64
	evSeqAnon uint64

	started bool

	// Scheduler coroutines. acting holds the scheduler role: it runs
	// drive until the run ends or until a step it hosts inline suspends
	// mid-flight, which leaves it hosting that step while Run's
	// trampoline resumes one from idle (or a new one) in its place. A
	// host whose step has completed parks itself in idle. scheds lists
	// every one created, so Run can stop them all.
	acting *coro
	idle   []*coro
	scheds []*coro
}

// syncRunning materialises the running context's pending quantum yield,
// for engine entry points that are invoked on a different receiver than
// the caller (Unpark on a target context, AtEvent on the engine).
func (e *Engine) syncRunning() {
	if r := e.running; r != nil {
		r.Sync()
	}
}

// Option configures an Engine.
type Option func(*Engine)

// WithQuantum sets the run-ahead quantum in cycles. Zero keeps the default.
func WithQuantum(q Time) Option {
	return func(e *Engine) {
		if q > 0 {
			e.quantum = q
		}
	}
}

// NewEngine returns an empty engine.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{quantum: DefaultQuantum}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Now returns the global clock: the local time of the entity (context or
// event) that is currently executing, including any cycles the running
// context has accumulated since it was dispatched.
func (e *Engine) Now() Time {
	if e.running != nil {
		return e.running.time
	}
	return e.now
}

// Quantum returns the engine's run-ahead quantum.
func (e *Engine) Quantum() Time { return e.quantum }

// DispatchStats returns the engine's dispatch counters so far.
func (e *Engine) DispatchStats() DispatchStats { return e.dstats }

// AtEvent schedules ev to fire at absolute simulated time t. Events run
// on the scheduler, may not block, and execute before any context whose
// clock is later than t. Equal-time events fire in a deterministic
// order: origin-less events (this method) in scheduling order, before
// any origin-keyed event (AtEventFrom) at the same time.
func (e *Engine) AtEvent(t Time, ev Event) {
	t = e.eventTime(t)
	e.evSeqAnon++
	e.queue.push(e.queue.newEvent(t, packedKey(-1, e.evSeqAnon), ev))
}

// AtEventFrom schedules ev to fire at absolute simulated time t on behalf
// of origin (a simulated node). Equal-time events order by the stable key
// (origin, per-origin sequence) — a function of the origin's own
// scheduling history only. An origin that is negative or too large for
// the key is a caller bug.
func (e *Engine) AtEventFrom(t Time, origin int, ev Event) {
	if origin < 0 || origin+1 >= maxOrigins {
		panic(fmt.Sprintf("sim: event origin %d outside [0, %d)", origin, maxOrigins-1))
	}
	t = e.eventTime(t)
	if origin >= len(e.evSeqs) {
		e.evSeqs = append(e.evSeqs, make([]uint64, origin+1-len(e.evSeqs))...)
	}
	e.evSeqs[origin]++
	e.queue.push(e.queue.newEvent(t, packedKey(origin, e.evSeqs[origin]), ev))
}

// eventTime clamps a new event's time to the current time. It first
// materialises the running context's pending yield — before the event
// takes its sequence number, which another context of the same origin
// may advance during that yield.
func (e *Engine) eventTime(t Time) Time {
	e.syncRunning()
	if now := e.Now(); t < now {
		return now
	}
	return t
}

// AfterEvent schedules ev to fire delta cycles after the current global
// time.
func (e *Engine) AfterEvent(delta Time, ev Event) { e.AtEvent(e.Now()+delta, ev) }

// At schedules fn to run at absolute simulated time t.
func (e *Engine) At(t Time, fn func()) { e.AtEvent(t, funcEvent(fn)) }

// After schedules fn delta cycles after the current global time.
func (e *Engine) After(delta Time, fn func()) { e.AtEvent(e.Now()+delta, funcEvent(fn)) }

// AfterFrom schedules fn delta cycles after the current global time on
// behalf of origin.
func (e *Engine) AfterFrom(delta Time, origin int, fn func()) {
	e.AtEventFrom(e.Now()+delta, origin, funcEvent(fn))
}

// drive is the acting scheduler's loop: pop the least pending entry and
// fire it (an event) or dispatch it (a context). It returns false when
// the run is over — the machine went quiescent, or a context or an event
// aborted it — with the caller still holding the scheduler role. It
// returns true when this coroutine lost the role instead: a stepper it
// hosted inline suspended mid-step (Context.suspend) and another
// scheduler coroutine took over; the suspended activation has now
// completed back here, and the stale frame, observing the newer schedGen,
// retires. A panic in an event becomes the run's abort error, as a
// context's does; shutdownSignal keeps unwinding through a host's frames.
func (e *Engine) drive() (lost bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(shutdownSignal); ok {
				panic(r)
			}
			e.abort = panicError(fmt.Sprintf("event at cycle %d", e.now), r)
		}
	}()
	gen := e.schedGen
	for e.abort == nil && e.queue.n > 0 {
		en := e.queue.pop()
		if c := en.ctx; c != nil {
			e.dispatch(c)
			if e.schedGen != gen {
				return true
			}
			continue
		}
		ev := en.ev
		e.now = max(e.now, en.t)
		e.queue.release(en)
		e.running = nil
		ev.Fire()
	}
	return false
}

// schedule is a scheduler coroutine's body. Resumed by Run's trampoline
// it holds the scheduler role and drives the run. If it comes back
// having lost the role — it stayed behind hosting a suspended step, and
// was resumed by the scheduler that dispatched that step, on whose conch
// the step has now completed — it parks in the idle pool and yields the
// conch back to that scheduler, to take the role again when the
// trampoline next needs one. Returning ends the run.
func (e *Engine) schedule() {
	self := e.acting
	for e.drive() {
		e.idle = append(e.idle, self)
		self.suspend()
	}
}

// Run drives the simulation until every non-daemon context finishes and
// the machine is quiescent (no runnable contexts, no pending events). It
// returns an error if a context panicked or if the machine deadlocked with
// unfinished work.
func (e *Engine) Run() error {
	if e.started {
		return fmt.Errorf("sim: engine already ran")
	}
	e.started = true
	defer e.finish()

	// The trampoline: resume a scheduler coroutine; each time one yields
	// here — a step it hosts inline suspended mid-flight, pinning its
	// stack — hand the role to another, until one returns, ending the run.
	for more := true; more; {
		if n := len(e.idle); n > 0 {
			e.acting, e.idle = e.idle[n-1], e.idle[:n-1]
		} else {
			e.acting = newCoro(e.schedule)
			e.scheds = append(e.scheds, e.acting)
		}
		_, more = e.acting.next()
	}

	if e.abort != nil {
		return e.abort
	}
	var waiting []string
	for _, c := range e.contexts {
		if c.daemon || c.state == StateDone {
			continue
		}
		waiting = append(waiting, fmt.Sprintf("%s@%d(%s: %s)", c.name, c.time, c.state, c.park))
	}
	if len(waiting) > 0 {
		sort.Strings(waiting)
		return fmt.Errorf("sim: deadlock at cycle %d; blocked contexts: %s", e.now, strings.Join(waiting, ", "))
	}
	return nil
}

// finish tears the run down before Run returns: it stops every context
// coroutine still suspended (daemons, deadlocked or abandoned bodies),
// then every scheduler coroutine (idle, or hosting a step that never
// resumed); each stop returns once that goroutine has exited.
func (e *Engine) finish() {
	for _, c := range e.contexts {
		if c.step == nil && c.co != nil {
			c.co.stop()
		}
	}
	for _, co := range e.scheds {
		co.stop()
	}
}
