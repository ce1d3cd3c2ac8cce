package sim

import (
	"fmt"
	"iter"
)

// State describes a context's scheduling state.
type State uint8

// Context scheduling states.
const (
	StateNew State = iota
	StateRunnable
	StateRunning
	StateParked
	StateDone
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	}
	return "invalid"
}

// shutdownSignal is panicked through a coroutine's suspended frames when
// the engine stops it at the end of Run: a daemon body parked for good, or
// a scheduler coroutine still hosting a step that never resumed.
type shutdownSignal struct{}

// coro is one iter.Pull coroutine. next switches to its body — a direct
// hand-off that never touches the Go scheduler's run queues — and returns
// true when the body suspends, false when it has returned; a body panic
// resurfaces in the caller of next. stop unwinds a suspended body and
// returns once its goroutine has exited.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// newCoro wraps body in a coroutine. Nothing runs, and no goroutine
// exists, until the first next.
func newCoro(body func()) *coro {
	co := &coro{}
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(shutdownSignal); !ok {
					panic(r)
				}
			}
		}()
		body()
	})
	return co
}

// suspend switches back to whoever resumed the coroutine and returns at
// its next resumption; a stop instead unwinds the suspended frames with
// shutdownSignal, which newCoro swallows.
func (co *coro) suspend() {
	if !co.yield(struct{}{}) {
		panic(shutdownSignal{})
	}
}

// Step is a stepper context's body: one run-to-completion dispatch. It
// returns false when no work is pending, which suspends the context in
// the parked state (its idle reason) until the next Unpark; returning
// true immediately runs the next step with no scheduling point between
// steps.
type Step func(*Context) bool

// Context is a simulated instruction stream scheduled by an Engine.
type Context struct {
	eng  *Engine
	id   int
	name string

	time      Time
	lastYield Time
	ent       entry // the context's place in the engine's queue while runnable
	state     State
	daemon    bool

	park          parkReason
	pendingUnpark bool
	pendingAt     Time

	body func(*Context)
	// co is the coroutine the context's frames live on. A goroutine
	// context owns one, created at its first dispatch. A stepper has none
	// at a step boundary — it dispatches inline — and while suspended
	// mid-step it borrows the scheduler coroutine that was hosting the
	// step, to be resumed there.
	co *coro

	// Stepper state. step is non-nil for stepper contexts; idleReason is
	// the park reason reported while the stepper has no work. noBlock
	// counts active MustNotBlock sections: Park panics while it is
	// positive, asserting run-to-completion handlers.
	step       Step
	idleReason string
	noBlock    int
	// lazyYield records a LazyYield request: the reschedule happens,
	// free of any frame suspension, at the current step's boundary —
	// earlier only by riding along with a quantum yield. lazyQuantum
	// records a deferred quantum force-yield: it materialises at the
	// context's next Sync (which every timing operation and every
	// Unpark or event it issues calls) or, if none comes, at the step
	// boundary.
	lazyYield   bool
	lazyQuantum bool
}

// ID returns the context's creation-order identifier.
func (c *Context) ID() int { return c.id }

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

// Time returns the context's local clock.
func (c *Context) Time() Time { return c.time }

// State returns the context's scheduling state.
func (c *Context) State() State { return c.state }

// Engine returns the engine that owns this context.
func (c *Context) Engine() *Engine { return c.eng }

// Spawn creates a context that must finish before Run can succeed.
// Spawning is allowed both before Run and from inside a running context
// or event; the new context starts at the current engine time, Now.
func (e *Engine) Spawn(name string, body func(*Context)) *Context {
	c := e.spawn(name, false)
	c.body = body
	return c
}

// SpawnDaemon creates a context that services the machine (for example an
// NP dispatch loop). Run does not wait for daemons to finish; they are
// torn down after all non-daemon contexts complete and the event queue
// drains. Daemons lose scheduling ties against regular contexts: a
// compute processor whose retried bus transaction and a service
// processor's next handler are due at the same cycle models the bus
// granting the retried access first, which is what guarantees forward
// progress in the simulated protocols.
func (e *Engine) SpawnDaemon(name string, body func(*Context)) *Context {
	c := e.spawn(name, true)
	c.body = body
	return c
}

// SpawnStepperDaemon creates a stepper daemon context (the NP dispatch
// loop): step is invoked inline by the scheduler, runs to completion, and
// returns false to idle the context under the given park reason until the
// next Unpark. Like every daemon it is torn down at quiescence and loses
// scheduling ties.
func (e *Engine) SpawnStepperDaemon(name string, step Step, idleReason string) *Context {
	c := e.spawn(name, true)
	c.step = step
	c.idleReason = idleReason
	return c
}

func (e *Engine) spawn(name string, daemon bool) *Context {
	var prio uint8 // tie-break class: compute contexts (0) run before daemons (1)
	if daemon {
		prio = 1
	}
	now := e.Now()
	c := &Context{
		eng:       e,
		id:        len(e.contexts),
		name:      name,
		time:      now,
		lastYield: now,
		daemon:    daemon,
	}
	c.ent = entry{rank: ctxRank(prio, c.id), ctx: c}
	e.contexts = append(e.contexts, c)
	c.makeRunnable()
	return c
}

// makeRunnable queues the context for dispatch at its local time.
func (c *Context) makeRunnable() {
	c.state = StateRunnable
	c.ent.t = c.time
	c.eng.queue.push(&c.ent)
}

// run is a goroutine context's coroutine body, entered at its first
// dispatch.
func (c *Context) run() {
	defer c.exit()
	c.onDispatched()
	c.body(c)
}

// panicError turns a panic recovered from who — a context body or an
// event — into the run's abort error. Error values are wrapped (not
// flattened to a string) so callers of Engine.Run can unwrap structured
// failures — e.g. a memory system panicking with a typed protocol error
// on a user-reachable condition — with errors.As.
func panicError(who string, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("sim: %s panicked: %w", who, err)
	}
	return fmt.Errorf("sim: %s panicked: %v", who, r)
}

func contextPanicError(name string, r any) error {
	return panicError(fmt.Sprintf("context %q", name), r)
}

// exit ends a context coroutine: a body panic is captured as the run's
// abort error, and returning hands the conch back to the dispatcher. An
// engine stop keeps unwinding to newCoro, leaving the context in the
// state it was suspended in.
func (c *Context) exit() {
	if r := recover(); r != nil {
		if _, ok := r.(shutdownSignal); ok {
			panic(r)
		}
		c.eng.abort = contextPanicError(c.name, r)
	}
	c.state = StateDone
}

// runSteps executes step bodies back-to-back — the dispatch loop never
// reschedules between handlers (paper §5.1) — until the stepper goes
// idle, then takes the idle boundary exactly as Park would: a pending
// wakeup converts it into a reschedule, otherwise the context parks
// under its idle reason. The caller (dispatchInline, on the scheduler
// coroutine hosting the activation) regains control at the boundary.
func (c *Context) runSteps() {
	for {
		// Re-evaluated each step: a mid-step suspension hands the
		// scheduler role away, after which this coroutine is a plain
		// host and later steps of the activation are goroutine steps.
		if c.eng.inline == c {
			c.eng.dstats.InlineSteps++
		} else {
			c.eng.dstats.GoroutineSteps++
		}
		ok := c.step(c)
		if c.lazyYield || c.lazyQuantum {
			// A pending reschedule — a Resume or a deferred quantum
			// force-yield — reached the step boundary: take it by
			// returning to the scheduler runnable. Neither host suspends
			// a frame for this, which is what makes dispatch run inline.
			c.lazyYield = false
			c.lazyQuantum = false
			c.co = nil
			c.makeRunnable()
			return
		}
		if ok {
			continue
		}
		if c.pendingUnpark {
			c.pendingUnpark = false
			if c.pendingAt > c.time {
				c.time = c.pendingAt
			}
			c.co = nil
			c.makeRunnable()
			return
		}
		c.park = parkReason{format: c.idleReason}
		c.state = StateParked
		c.co = nil
		if c.eng.inline == c {
			c.eng.dstats.ParksAvoided++
		}
		return
	}
}

// Advance charges n cycles of local execution. If the context has run more
// than the engine quantum past its last scheduling point it yields so that
// other contexts (and pending events) catch up.
func (c *Context) Advance(n Time) {
	c.Sync()
	c.time += n
	if c.time-c.lastYield >= c.eng.quantum {
		if c.step != nil {
			// Steppers take the forced yield lazily: it materialises at
			// the next interaction point (the following Advance, a shared
			// memory or TLB access, an event or unpark) or for free at
			// the step boundary. Only context-local work sits between the
			// crossing and the materialisation point, so the scheduling
			// order other contexts observe is unchanged.
			c.lazyQuantum = true
		} else {
			c.Yield()
		}
	}
}

// TryTick charges one cycle when Advance(1) would do nothing more: no
// pending quantum yield to materialise and no quantum crossed by the
// charge. It reports whether it charged; on false the clock is untouched
// and the caller charges through Advance. It is the reference hit path's
// whole timing operation (machine.Proc.access), so it must stay inlinable.
func (c *Context) TryTick() bool {
	if c.lazyQuantum || c.time+1-c.lastYield >= c.eng.quantum {
		return false
	}
	c.time++
	return true
}

// AdvanceAtomic charges n cycles without any possibility of yielding. Use
// inside sections that must not observe interleaved simulated state. A
// pending quantum yield still materialises on entry — before the atomic
// section, never inside it.
func (c *Context) AdvanceAtomic(n Time) {
	c.Sync()
	c.time += n
}

// SyncTo moves the context's clock forward to t if it lags (idle time,
// charged without yielding). Service processors use it so a queued item
// is never handled before the simulated instant it was posted.
func (c *Context) SyncTo(t Time) {
	c.Sync()
	if t > c.time {
		c.time = t
	}
}

// Yield reschedules the context, letting every entity with an earlier (or
// equal, lower-id) clock run first.
func (c *Context) Yield() {
	c.checkRunning("Yield")
	c.makeRunnable()
	c.suspend()
}

// suspend switches away from the context until it is dispatched again;
// the caller has just made it runnable (Yield) or parked it (Park). A
// goroutine context yields on its own coroutine. A stepper suspending
// here is mid-step, so its frames sit on a scheduler coroutine: if that
// is the acting scheduler (the activation was hosted inline) the yield
// lands in Run's trampoline, which resumes another scheduler coroutine to
// carry on — bumping schedGen retires the scheduler frames below us once
// the activation completes — and this one stays behind as the step's
// host; a step resumed on its host yields back to the scheduler that
// dispatched it, like any goroutine context. The conch moves with every
// switch.
func (c *Context) suspend() {
	if e := c.eng; e.inline == c {
		e.dstats.InlineSuspends++
		e.inline = nil
		e.schedGen++
		c.co = e.acting
	}
	c.co.suspend()
	c.onDispatched()
}

// Sleep advances the local clock by n cycles and yields, modeling an idle
// wait of known length.
func (c *Context) Sleep(n Time) {
	c.Sync()
	c.time += n
	c.Yield()
}

// LazyYield requests a reschedule that takes effect at the end of the
// current step, where it is free of frame suspension: the stepper simply
// returns to the scheduler runnable. Timing operations inside the step
// (Advance, Sync, SyncTo, scheduling an event, an Unpark) do not take
// it; only a quantum yield they materialise does, and that one
// reschedule then satisfies both requests. The rest of the step
// therefore runs before the reschedule, so the request suits only a
// caller whose remaining step work may run ahead of contexts it has
// just woken — Typhoon's Resume, whose handlers finish with NP-local
// bookkeeping, sends and stolen-cycle accounting. On non-stepper
// contexts LazyYield degrades to an immediate Yield.
func (c *Context) LazyYield() {
	c.checkRunning("LazyYield")
	if c.step == nil {
		c.Yield()
		return
	}
	c.lazyYield = true
}

// Sync materialises a pending quantum yield at exactly this point,
// pinning the reschedule's position relative to the caller's subsequent
// effects. Call it before publishing state that other contexts read
// without a timing operation in between. A pending LazyYield alone is
// left for the step boundary.
func (c *Context) Sync() {
	if c.lazyQuantum {
		c.lazyQuantum = false
		c.lazyYield = false // one reschedule satisfies both requests
		c.Yield()
	}
}

// BeginNoBlock opens a MustNotBlock section: until the matching
// EndNoBlock, a Park on this context panics. Dispatchers wrap
// run-to-completion handlers (message, fault, bulk-chunk bodies; the
// hardware directory's atomic coherence action) in one, turning the
// paper's §5.1 "handlers run to completion" contract into an assertion.
// Yields are still allowed — quantum and resume yields reschedule without
// blocking on an external wakeup.
func (c *Context) BeginNoBlock() { c.noBlock++ }

// EndNoBlock closes the innermost MustNotBlock section.
func (c *Context) EndNoBlock() { c.noBlock-- }

// parkReason is why a context is parked: a format and up to two integer
// operands, rendered only when a deadlock report or a MustNotBlock panic
// asks for the text. Parks are on the miss and barrier paths; those are
// not.
type parkReason struct {
	format string
	args   [2]int
	n      int
}

func makeParkReason(format string, args []int) parkReason {
	r := parkReason{format: format}
	if len(args) > len(r.args) {
		panic("sim: a park reason takes at most two operands")
	}
	r.n = copy(r.args[:], args)
	return r
}

func (r parkReason) String() string {
	if r.n == 0 {
		return r.format
	}
	return fmt.Sprintf(r.format, []any{r.args[0], r.args[1]}[:r.n]...)
}

// Park suspends the context until another entity calls Unpark. The
// reason appears in deadlock reports and is rendered only there: a
// constant string, or a format with up to two integer operands
// ("lock %d", id). If an Unpark raced ahead of the Park (the wakeup was
// issued while the context was still running), Park consumes it and
// returns immediately.
func (c *Context) Park(reason string, args ...int) {
	c.checkRunning("Park")
	c.Sync()
	r := makeParkReason(reason, args)
	if c.noBlock > 0 {
		panic(fmt.Sprintf("sim: context %q parked (%s) inside a MustNotBlock section: run-to-completion handler blocked", c.name, r))
	}
	if c.pendingUnpark {
		c.pendingUnpark = false
		if c.pendingAt > c.time {
			c.time = c.pendingAt
		}
		c.Yield() // still reschedule so earlier entities run first
		return
	}
	c.park = r
	c.state = StateParked
	c.suspend()
}

// Unpark makes a parked context runnable no earlier than simulated time
// at. Calling Unpark on a context that is not parked records a pending
// wakeup that its next Park consumes. Unpark must be called while holding
// the conch — i.e. from a running context or event.
func (c *Context) Unpark(at Time) {
	c.eng.syncRunning()
	switch c.state {
	case StateParked:
		if at > c.time {
			c.time = at
		}
		c.park = parkReason{}
		c.makeRunnable()
	case StateDone:
		// Late wakeup for a finished context; ignore.
	default:
		c.pendingUnpark = true
		if at > c.pendingAt {
			c.pendingAt = at
		}
	}
}

func (c *Context) onDispatched() {
	c.state = StateRunning
	c.lastYield = c.time
	c.eng.running = c
	c.eng.now = c.time
}

func (c *Context) checkRunning(op string) {
	if c.eng.running != c {
		panic(fmt.Sprintf("sim: %s called on context %q which is not running (state %v)", op, c.name, c.state))
	}
}

// dispatch hands the conch to c. A stepper at a boundary runs inline on
// the acting scheduler coroutine; everything else (goroutine bodies,
// steppers suspended mid-step on the scheduler coroutine that hosted
// them) is one coroutine switch there and one back when it suspends or
// finishes.
func (e *Engine) dispatch(c *Context) {
	if c.step != nil && c.co == nil {
		e.dstats.InlineDispatches++
		e.dispatchInline(c)
		e.running = nil
		return
	}
	e.dstats.GoroutineSwitches++
	if c.step != nil {
		e.dstats.StepperFallbacks++
	} else if c.co == nil {
		c.co = newCoro(c.run)
	}
	c.co.next()
	e.running = nil
}

// dispatchInline runs one stepper activation on the acting scheduler
// coroutine. A panic in a step body becomes the run's abort error,
// exactly as a goroutine body's panic would; shutdownSignal keeps
// unwinding through the host's frames.
func (e *Engine) dispatchInline(c *Context) {
	defer func() {
		e.inline = nil
		if r := recover(); r != nil {
			if _, ok := r.(shutdownSignal); ok {
				panic(r)
			}
			e.abort = contextPanicError(c.name, r)
			c.state = StateDone
		}
	}()
	c.onDispatched()
	e.inline = c
	c.runSteps()
}
