// Package sim provides a deterministic, cooperative discrete-event engine.
//
// The engine plays the role the Wisconsin Wind Tunnel plays in the paper:
// it hosts one context per simulated instruction stream (a compute
// processor's thread, a network-interface processor's dispatch loop) and
// interleaves them in global cycle order. Exactly one context runs at a
// time per shard (cooperative "conch" scheduling), so simulated state
// needs no locking and every run of the same configuration is
// bit-identical.
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
// through the Go scheduler. A stepper context (SpawnStepper,
// SpawnStepperDaemon) is a run-to-completion dispatch loop — the WWT
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
// # Sharded execution
//
// With WithShards the engine partitions its origins (simulated nodes)
// across shards, each with its own clock, runnable heap, and event heap,
// and advances them in conservative time windows. Each round grants
// every shard a window up to an adaptive per-shard bound — the earliest
// instant anything another shard does from here on could possibly affect
// it, derived from the other shards' earliest pending items plus the
// guaranteed cross-shard delivery latency (WithCrossShardDelivery) and a
// lower bound on the next barrier release (see planRound) — and never
// narrower than the lockstep window [M, M+W), W the configured base
// lookahead (for the paper's machine, the 11-cycle network and barrier
// latencies). Within its window a shard's nodes cannot be affected by
// another shard — every cross-shard interaction is a timed event past
// the granted bound — so the windows of one round are independent of
// each other. The acting scheduler runs them one after another in
// shard order, merges cross-shard events (the per-shard outboxes) and
// barrier arrivals at the boundary, plans the next round's bounds, and
// repeats (drive/nextRound); a serial engine is the same loop over one
// unbounded window. Running a round's windows on one goroutine per shard
// was measured and removed — per-round synchronisation cost more than
// the parallelism returned at this machine size, and whole points
// already parallelise across workers — so sharding exists for what
// depends on the partitioned order: the stable event key, shard-local
// tracing, and the determinism gates.
//
// Determinism survives sharding because every ordering the simulation can
// observe is a strict total order independent of the partitioning: events
// carry the stable key (time, origin, per-origin sequence), whose
// components depend only on the originating node's own history, and
// runnable contexts order by (time, prio, id). Merging a window's
// cross-shard events is therefore plain heap insertion — the key already
// fixes the fire order — and a run's results are bit-identical for every
// shard count, which the harness equivalence tests and the digest gate
// assert.
//
// Scheduling is allocation-free on the steady-state path: runnable
// contexts and pending events live in index-based 4-ary min-heaps over
// slices that are reused across pushes, and events are stored as Event
// interface values (pointer-shaped, so scheduling a *T or a func boxes
// nothing). Because both heap orderings are strict total orders, any
// min-heap pops them in exactly sorted order, so the heap's arity and
// internal layout cannot affect simulated results.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is a simulated clock value in processor cycles.
type Time uint64

// infTime is the unreachable "no bound" time: the serial window limit and
// the empty-heap sentinel.
const infTime = Time(^uint64(0))

// DefaultQuantum bounds how far a context may run ahead of its last yield
// before it is forced back through the scheduler. It is a few network
// latencies (Table 2: 11 cycles) so a compute processor cannot starve
// its node's NP of overlap opportunities (prefetch, bulk transfer)
// for long; a larger quantum would trade that fidelity for fewer context
// switches, the same trade execution-driven simulators make.
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

func (d *DispatchStats) add(o DispatchStats) {
	d.InlineDispatches += o.InlineDispatches
	d.GoroutineSwitches += o.GoroutineSwitches
	d.StepperFallbacks += o.StepperFallbacks
	d.ParksAvoided += o.ParksAvoided
	d.InlineSteps += o.InlineSteps
	d.GoroutineSteps += o.GoroutineSteps
	d.InlineSuspends += o.InlineSuspends
}

// WindowStats counts how the sharded scheduler granted execution
// windows. All zero on a serial engine (no windows exist); the counters
// describe scheduler mechanics, like DispatchStats, never simulated
// behaviour.
type WindowStats struct {
	// Grants counts per-shard window grants: each round grants every
	// shard with work inside its bound one window.
	Grants uint64
	// Batched counts grants at least two base windows wide — rounds
	// where the planner handed a shard multiple lockstep windows in one
	// grant.
	Batched uint64
	// WidthCycles is the total granted width in simulated cycles (the
	// distance from each granted shard's next pending item to its
	// bound); WidthCycles/Grants is the mean granted width.
	WidthCycles uint64
}

func (w *WindowStats) add(o WindowStats) {
	w.Grants += o.Grants
	w.Batched += o.Batched
	w.WidthCycles += o.WidthCycles
}

// shard is one partition of the simulated machine: a group of origins
// (nodes) with their own clock, heaps, and conch. A serial engine is one
// shard; a sharded engine's acting scheduler runs the shards' windows one
// at a time. All shard fields are owned by whichever coroutine holds the
// conch, which moves with every coroutine switch.
type shard struct {
	eng *Engine
	id  int

	now      Time
	runnable ctxHeap
	events   evHeap

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
	abort  error // first panic captured from a context on this shard

	// Windowed-execution state. limit is the current window's end (items
	// at or past it wait for a later window; infTime in serial mode).
	// base is the shard's earliest pending item as of the last boundary
	// (planning state). outbox stages events destined for other shards.
	limit  Time
	base   Time
	outbox []outItem
}

// clock returns the shard's current time: the running context's local
// clock, or the shard clock when an event (or nothing) is executing.
func (s *shard) clock() Time {
	if s.running != nil {
		return s.running.time
	}
	return s.now
}

// syncRunning materialises the running context's pending LazyYield, for
// engine entry points that are invoked on a different receiver than the
// caller (Unpark on a target context, AtEvent on the engine).
func (s *shard) syncRunning() {
	if r := s.running; r != nil {
		r.Sync()
	}
}

// nextTime returns the earliest pending item on the shard: the head of
// the runnable heap or the event heap, whichever is due first.
func (s *shard) nextTime() Time {
	t := infTime
	if s.runnable.len() > 0 {
		t = s.runnable.a[0].time
	}
	if s.events.len() > 0 && s.events.a[0].t < t {
		t = s.events.a[0].t
	}
	return t
}

// Engine schedules contexts and timed events in global cycle order.
type Engine struct {
	quantum Time
	window  Time // base cross-shard lookahead; the minimum window width
	// minDelivery is the guaranteed minimum latency of a cross-shard
	// event (WithCrossShardDelivery): every AtEventFromTo crossing a
	// shard boundary fires at least this many cycles after the caller's
	// clock. It is the lookahead LA of the window planner; defaults to
	// window.
	minDelivery Time
	origins     int // number of event origins (simulated nodes)
	nshards     int
	contexts    []*Context
	sh          []*shard

	// Event tie-break state. Events carry a stable key (time, origin,
	// per-origin sequence): evSeqs[i] counts events scheduled by origin i
	// (a simulated node), and evSeqAnon counts origin-less events
	// (AtEvent/At/After — engine tests and other non-node callers, which
	// sort before every node origin at equal times). The key is a pure
	// function of each origin's own scheduling history, so the merged
	// fire order is independent of how origins are partitioned across
	// shards — unlike a global insertion sequence, which would encode the
	// interleaving of the whole machine. Under sharding each element is
	// written only by the shard that owns its origin.
	evSeqs    []uint64
	evSeqAnon uint64

	started  bool
	finished bool

	barriers []*Barrier // sharded barriers merged at window boundaries

	// Scheduler coroutines. acting holds the scheduler role: it runs
	// drive until the run ends or until a step it hosts inline suspends
	// mid-flight, which leaves it hosting that step while Run's
	// trampoline resumes one from idle (or a new one) in its place. A
	// host whose step has completed parks itself in idle. scheds lists
	// every one created, so Run can stop them all.
	acting *coro
	idle   []*coro
	scheds []*coro

	// Round state: the current round's grant queue, run in shard order,
	// with nextGrant the window in progress (so a scheduler coroutine
	// taking over mid-window continues it). A serial engine has one
	// round: its single shard's unbounded window. nonDaemons and
	// ectScratch are planner scratch built once at Run start (sharded
	// engines forbid mid-run spawns).
	grants     []*shard
	nextGrant  int
	nonDaemons []*Context
	ectScratch []Time

	// Window telemetry, written by the acting scheduler and read after Run.
	winGrants, winBatched, winWidthSum uint64

	dstats DispatchStats // folded across shards when Run finishes

	abort error // first shard abort, folded by shard id
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

// WithShards partitions origins 0..origins-1 across the given number of
// shards (contiguous ranges, ShardOf) and advances them in conservative
// time windows of at least the given lookahead: window must be a
// lower bound on the latency of every cross-shard interaction (for the
// paper's machine, min(network latency, barrier latency) = 11 cycles).
// One shard keeps fully serial execution and is always valid.
func WithShards(shards, origins int, window Time) Option {
	return func(e *Engine) {
		if shards < 1 {
			panic("sim: WithShards requires at least one shard")
		}
		if shards > 1 {
			if origins < shards {
				panic("sim: WithShards requires at least one origin per shard")
			}
			if window < 1 {
				panic("sim: WithShards requires a positive lookahead window")
			}
		}
		e.nshards, e.origins, e.window = shards, origins, window
	}
}

// WithCrossShardDelivery declares the guaranteed minimum latency of
// cross-shard events: every AtEventFromTo that crosses a shard boundary
// fires at least d cycles after the scheduling clock. The window
// planner uses it as its lookahead — larger d means longer
// uninterrupted windows. d must hold for every cross-shard interaction
// (for the paper's machine, the network's base latency: contention and
// occupancy only delay delivery further); the window-safety check in
// AtEventFromTo fails loudly on any violation. Values below the base
// window are ignored (the base window is always a valid lookahead).
func WithCrossShardDelivery(d Time) Option {
	return func(e *Engine) { e.minDelivery = d }
}

// NewEngine returns an empty engine.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		quantum: DefaultQuantum,
		nshards: 1,
	}
	for _, o := range opts {
		o(e)
	}
	if e.minDelivery < e.window {
		e.minDelivery = e.window
	}
	if e.origins > 0 {
		e.evSeqs = make([]uint64, e.origins)
	}
	e.sh = make([]*shard, e.nshards)
	for i := range e.sh {
		s := &shard{eng: e, id: i, limit: infTime}
		s.runnable.a = make([]*Context, 0, 64)
		s.events.a = make([]evItem, 0, 256)
		e.sh[i] = s
	}
	return e
}

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return len(e.sh) }

// ShardOf returns the shard that owns origin (a simulated node):
// contiguous ranges, so a node's processor and network interface — and
// every origin a machine keeps node-local state for — land together.
func (e *Engine) ShardOf(origin int) int {
	if len(e.sh) == 1 {
		return 0
	}
	if origin < 0 || origin >= e.origins {
		panic(fmt.Sprintf("sim: origin %d out of range [0,%d)", origin, e.origins))
	}
	return origin * len(e.sh) / e.origins
}

// Now returns the global clock: the local time of the entity (context or
// event) that is currently executing, including any cycles the running
// context has accumulated since it was dispatched. A sharded engine has
// no single clock — use NowFor with the acting origin instead.
func (e *Engine) Now() Time {
	if len(e.sh) > 1 {
		panic("sim: Now is ambiguous under sharded execution; use NowFor(origin)")
	}
	return e.sh[0].clock()
}

// NowFor returns the clock of the shard that owns origin: the local time
// of that shard's running context or firing event. Callers must be
// executing on origin's shard (node-local code always is).
func (e *Engine) NowFor(origin int) Time {
	return e.sh[e.ShardOf(origin)].clock()
}

// Quantum returns the engine's run-ahead quantum.
func (e *Engine) Quantum() Time { return e.quantum }

// DispatchStats returns the engine's dispatch counters so far, summed
// across shards.
func (e *Engine) DispatchStats() DispatchStats {
	if e.finished {
		return e.dstats
	}
	var d DispatchStats
	for _, s := range e.sh {
		d.add(s.dstats)
	}
	return d
}

// WindowStats returns the engine's window-grant counters. Call after Run
// (the acting scheduler owns the counters while a sharded run is in
// flight); a serial engine reports all zeros.
func (e *Engine) WindowStats() WindowStats {
	return WindowStats{
		Grants:      e.winGrants,
		Batched:     e.winBatched,
		WidthCycles: e.winWidthSum,
	}
}

// AtEvent schedules ev to fire at absolute simulated time t. Events run
// on the scheduler, may not block, and execute before any context whose
// clock is later than t. Equal-time events fire in a deterministic
// order: origin-less events (this method) in scheduling order, before
// any origin-keyed event (AtEventFrom) at the same time. Origin-less
// events live on shard 0 and require a serial engine.
func (e *Engine) AtEvent(t Time, ev Event) {
	if len(e.sh) > 1 {
		panic("sim: origin-less events require a serial engine; use AtEventFrom")
	}
	s := e.sh[0]
	s.syncRunning()
	if now := s.clock(); t < now {
		t = now
	}
	e.evSeqAnon++
	s.events.push(evItem{t: t, key: packedKey(-1, e.evSeqAnon), ev: ev})
}

// AtEventFrom schedules ev to fire at absolute simulated time t on behalf
// of origin (a simulated node), on origin's own shard. Equal-time events
// order by the stable key (origin, per-origin sequence) — a function of
// the origin's own scheduling history only, which is what makes sharded
// execution meet the serial fire order exactly. The caller must be
// executing on origin's shard.
func (e *Engine) AtEventFrom(t Time, origin int, ev Event) {
	e.AtEventFromTo(t, origin, origin, ev)
}

// AtEventFromTo is AtEventFrom with the event fired on the shard that
// owns dest (the node whose state ev mutates): a cross-shard event is
// staged in the origin shard's outbox and merged into dest's heap at the
// next window boundary. t must be at least the cross-shard delivery
// lookahead (WithCrossShardDelivery; at minimum one base window) in the
// future whenever dest lives on another shard — true by construction for
// network packets, whose base latency bounds the lookahead from above
// while contention only delays delivery further.
func (e *Engine) AtEventFromTo(t Time, origin, dest int, ev Event) {
	s := e.sh[e.ShardOf(origin)]
	s.syncRunning()
	if now := s.clock(); t < now {
		t = now
	}
	if origin >= len(e.evSeqs) {
		// Serial engines without WithShards size the table on demand;
		// sharded engines pre-size it (ShardOf bounds origin).
		e.evSeqs = append(e.evSeqs, make([]uint64, origin+1-len(e.evSeqs))...)
	}
	e.evSeqs[origin]++
	it := evItem{t: t, key: packedKey(origin, e.evSeqs[origin]), ev: ev}
	if ds := e.ShardOf(dest); ds != s.id {
		// Window-safety invariant: a cross-shard event is staged in the
		// outbox and merged only at the next window boundary, so one
		// scheduled below the destination shard's granted bound would be
		// delivered late — silently, and differently at different shard
		// counts. That means the caller's lookahead claim (e.g. the
		// network latency bounding the planner's lookahead) is broken;
		// fail loudly instead of corrupting determinism, naming the
		// event's stable (time, origin, seq) key, both shards, and the
		// granted bounds so the broken bound is debuggable from the panic
		// alone. Limits are infTime on a serial engine, so the check only
		// bites under sharded execution, where it matters.
		if d := e.sh[ds]; t < d.limit {
			panic(fmt.Sprintf(
				"sim: cross-shard event (time %d, origin %d, seq %d) from shard %d to node %d on shard %d lands inside the current window (granted bound %d, origin shard's bound %d, base window %d, delivery lookahead %d): lookahead too small for the scheduling horizon",
				t, origin, e.evSeqs[origin], s.id, dest, ds, d.limit, s.limit, e.window, e.minDelivery))
		}
		s.outbox = append(s.outbox, outItem{sh: int32(ds), it: it})
	} else {
		s.events.push(it)
	}
}

// AfterEvent schedules ev to fire delta cycles after the current global
// time.
func (e *Engine) AfterEvent(delta Time, ev Event) { e.AtEvent(e.Now()+delta, ev) }

// AfterEventFrom schedules ev delta cycles after origin's current shard
// time, on origin's shard.
func (e *Engine) AfterEventFrom(delta Time, origin int, ev Event) {
	e.AtEventFrom(e.NowFor(origin)+delta, origin, ev)
}

// At schedules fn to run at absolute simulated time t.
func (e *Engine) At(t Time, fn func()) { e.AtEvent(t, funcEvent(fn)) }

// After schedules fn delta cycles after the current global time.
func (e *Engine) After(delta Time, fn func()) { e.AtEvent(e.Now()+delta, funcEvent(fn)) }

// AfterFrom schedules fn delta cycles after origin's current shard time,
// on origin's shard.
func (e *Engine) AfterFrom(delta Time, origin int, fn func()) {
	e.AtEventFrom(e.NowFor(origin)+delta, origin, funcEvent(fn))
}

// runWindow runs the shard's current window: fire due events, dispatch
// runnable contexts in (time, prio, id) order, both bounded by the
// shard's window limit (infTime when serial). It returns false when the
// window is exhausted — nothing left before the limit, the shard went
// quiescent (serial), or the shard aborted — with the caller still
// holding the scheduler role. It returns true when this coroutine lost
// the role instead: a stepper it hosted inline suspended mid-step
// (Context.suspend) and another scheduler coroutine took over; the
// suspended activation has now completed back here, and the stale frame,
// observing the newer schedGen, retires.
func (s *shard) runWindow() (lost bool) {
	gen := s.schedGen
	for {
		if s.abort != nil {
			// Retire the window so the round's merge folds the abort and
			// ends the run.
			return false
		}
		// Run every event that is due before (or at) the next context.
		nextCtx := infTime
		if s.runnable.len() > 0 {
			nextCtx = s.runnable.a[0].time
		}
		if s.events.len() > 0 && s.events.a[0].t <= nextCtx && s.events.a[0].t < s.limit {
			ev := s.events.pop()
			if ev.t > s.now {
				s.now = ev.t
			}
			s.running = nil
			ev.ev.Fire()
			continue
		}
		if nextCtx >= s.limit {
			return false
		}
		s.dispatch(s.runnable.pop())
		if s.schedGen != gen {
			return true
		}
	}
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

	e.prepareWindows()
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
	var now Time
	for _, s := range e.sh {
		if s.now > now {
			now = s.now
		}
	}
	for _, c := range e.contexts {
		if c.daemon || c.state == StateDone {
			continue
		}
		waiting = append(waiting, fmt.Sprintf("%s@%d(%s: %s)", c.name, c.time, c.state, c.parkReason))
	}
	if len(waiting) > 0 {
		sort.Strings(waiting)
		return fmt.Errorf("sim: deadlock at cycle %d; blocked contexts: %s", now, strings.Join(waiting, ", "))
	}
	return nil
}

// finish tears the run down before Run returns: it stops every context
// coroutine still suspended (daemons, deadlocked or abandoned bodies),
// then every scheduler coroutine (idle, or hosting a step that never
// resumed) — each stop returns once that goroutine has exited — and
// folds the shards' dispatch counters.
func (e *Engine) finish() {
	for _, c := range e.contexts {
		if c.step == nil && c.co != nil {
			c.co.stop()
		}
	}
	for _, co := range e.scheds {
		co.stop()
	}
	e.finished = true
	var d DispatchStats
	for _, s := range e.sh {
		d.add(s.dstats)
	}
	e.dstats = d
}
