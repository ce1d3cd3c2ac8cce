package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/wiretext"
)

// CoordinatorOptions configures a Coordinator. A coordinator keeps no
// result cache: every point is leased, and the worker that simulates it
// serves it from, or stores it in, its own -cache-dir.
type CoordinatorOptions struct {
	// LeaseTTL bounds how long a lease may go without a heartbeat before
	// its point is re-queued (default 10s). It also sets the re-lease
	// delay after a failed attempt: LeaseTTL/100 << (attempt-1), capped at
	// LeaseTTL/2 — 100ms … 5s at the default.
	LeaseTTL time.Duration
	// MaxAttempts caps how many leases one point may consume across
	// worker losses, expiries, and rejections before the sweep fails
	// (default 5).
	MaxAttempts int
	// Logf, when non-nil, receives fleet lifecycle events.
	Logf func(format string, args ...any)
}

// Stats counts coordinator events; read a snapshot with Coordinator.Stats.
type Stats struct {
	// Workers is the total number of worker connections ever accepted (a
	// worker process running -j N is N of them).
	Workers uint64
	// Leases counts leases granted (including re-leases).
	Leases uint64
	// Reassigned counts points re-queued because their worker vanished.
	Reassigned uint64
	// Expired counts leases that outlived their TTL without a heartbeat.
	Expired uint64
	// Rejected counts results that failed verification (corrupt bytes or
	// key/code divergence).
	Rejected uint64
	// Duplicates counts valid completions that arrived after the point
	// was already settled; the first valid result won.
	Duplicates uint64
	// Completed/Failed count settled points.
	Completed uint64
	Failed    uint64
}

// String renders the counters as the one-line fleet summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d workers, %d leases (%d reassigned, %d expired, %d rejected, %d duplicate), %d completed, %d failed",
		s.Workers, s.Leases, s.Reassigned, s.Expired, s.Rejected, s.Duplicates, s.Completed, s.Failed)
}

// task is one sweep point's lifecycle on the coordinator. It is in
// exactly one place: the pending queue (or on its way back there behind
// a backoff timer), held by the worker connection it is leased to, or
// settled.
type task struct {
	key       resultcache.Key
	enc       []byte
	label     string
	timeoutMS uint64

	attempts int
	settled  bool
	entry    *resultcache.Entry // entry and err are written once, before done closes
	err      error
	done     chan struct{}
}

// Coordinator leases sweep points to workers; its Submit runs a batch
// as harness.LocalExecutor's does, slotted by index and failing fast.
// All submissions — local Submit calls and remote clients' leases —
// share one task table: identical concurrent points dedup to one lease.
// The table holds unsettled tasks only (all but NoCache points by key in
// tasks, the runnable ones in pending): a settled task is forgotten, so
// a later submission of its point is leased afresh, and a late result
// still reaches it through the connection that holds its lease.
//
// There is no scheduler: a worker connection carries one lease at a
// time, and the goroutine serving it (serveWorker) takes the next
// pending task whenever its worker is free.
type Coordinator struct {
	opts CoordinatorOptions
	code string

	mu      sync.Mutex
	tasks   map[resultcache.Key]*task
	pending []*task
	nextID  uint64
	conns   int
	stats   Stats

	work    chan struct{} // one token: pending may be non-empty
	quit    chan struct{}
	closing sync.Once
}

// NewCoordinator builds a coordinator.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	return &Coordinator{
		opts:  opts,
		code:  harness.CodeID(),
		tasks: make(map[resultcache.Key]*task),
		work:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close shuts the coordinator down: waiting submissions fail with
// "coordinator closed" and every connection's goroutine returns, which
// disconnects its peer. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.closing.Do(func() { close(c.quit) })
	return nil
}

// Submit leases the batch's points to the connected workers, honouring
// harness.LocalExecutor's contract — results slotted by index, first
// failure fails the batch. Points wait on
// remote workers, not on local cores, so all of them are in flight at
// once.
func (c *Coordinator) Submit(ctx context.Context, batch harness.Batch) ([]harness.PointResult, error) {
	return harness.RunPoints(ctx, batch, len(batch.Points),
		func(ctx context.Context, pt harness.Point) (harness.PointResult, error) {
			entry, err := c.runOne(ctx, pt, timeoutMS(batch.PointTimeout))
			if err != nil {
				return harness.PointResult{}, err
			}
			return pointResult(entry), nil
		})
}

// pointResult rebuilds a sweep result from a verified entry.
func pointResult(e *resultcache.Entry) harness.PointResult {
	return harness.PointResult{RunResult: harness.ResultFromEntry(e)}
}

// runOne resolves one point to its entry: dedup against an in-flight
// identical point (a NoCache point never dedups, it must simulate), or
// a fresh task for the next free worker.
func (c *Coordinator) runOne(ctx context.Context, pt harness.Point, tmoMS uint64) (*resultcache.Entry, error) {
	key, err := harness.PointKey(c.code, pt) // validates the point
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	var t *task
	if !pt.NoCache {
		t = c.tasks[key]
	}
	if t == nil {
		t = &task{
			key: key, enc: pt.Encode(), label: pt.Label(),
			timeoutMS: tmoMS, done: make(chan struct{}),
		}
		if !pt.NoCache {
			c.tasks[key] = t
		}
		c.enqueueLocked(t)
	}
	c.mu.Unlock()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.quit:
		return nil, errf("submit", "", t.label, "coordinator closed")
	case <-t.done:
		return t.entry, t.err
	}
}

// timeoutMS is a point timeout as the wire carries it: whole
// milliseconds, rounded up so a sub-millisecond limit stays a limit.
func timeoutMS(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64((d + time.Millisecond - 1) / time.Millisecond)
}

// --- the task table ---

// enqueueLocked makes a task runnable and leaves the token that wakes a
// free worker connection.
func (c *Coordinator) enqueueLocked(t *task) {
	c.pending = append(c.pending, t)
	c.signal()
}

func (c *Coordinator) signal() {
	select {
	case c.work <- struct{}{}:
	default:
	}
}

// grant hands the next pending task to a free worker connection as a
// new lease, passing the token on while more tasks wait.
func (c *Coordinator) grant(name string) (*task, string) {
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return nil, ""
	}
	t := c.pending[0]
	c.pending = slices.Delete(c.pending, 0, 1)
	if len(c.pending) > 0 {
		c.signal()
	}
	t.attempts++
	c.nextID++
	c.stats.Leases++
	id, attempt := fu(c.nextID), t.attempts
	c.mu.Unlock()
	c.logf("fleet: lease %s: %s -> %s (attempt %d)", id, t.label, name, attempt)
	return t, id
}

// requeueLocked sends an unsettled task whose lease came to nothing back
// to pending after a backoff, failing it once its lease budget is spent.
func (c *Coordinator) requeueLocked(t *task, why string) {
	if t.settled {
		return
	}
	if t.attempts >= c.opts.MaxAttempts {
		c.settleLocked(t, nil, errf("lease", "", t.label, "gave up after %d attempts (%s)", t.attempts, why))
		return
	}
	backoff := min(c.opts.LeaseTTL/100<<min(t.attempts-1, 6), c.opts.LeaseTTL/2) // <<6 is past the cap
	time.AfterFunc(backoff, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !t.settled { // a late result may have settled it meanwhile
			c.enqueueLocked(t)
		}
	})
}

// settleLocked releases a task's waiters with its verified entry or its
// error and drops it from the table.
func (c *Coordinator) settleLocked(t *task, entry *resultcache.Entry, err error) {
	if err != nil {
		c.stats.Failed++
	} else {
		c.stats.Completed++
	}
	t.entry, t.err, t.settled = entry, err, true
	if c.tasks[t.key] == t {
		delete(c.tasks, t.key)
	}
	if i := slices.Index(c.pending, t); i >= 0 { // settled by a late result while re-queued
		c.pending = slices.Delete(c.pending, i, i+1)
	}
	close(t.done)
}

// verified decodes a remote result and holds it to the canonical check:
// the entry must carry exactly the key the receiver derived for the
// point, under the receiver's code digest. Anything else is a divergent
// simulation or a mixed build. Coordinator and client both verify here.
func verified(payload []byte, key resultcache.Key, code, peer, label string) (*resultcache.Entry, *Error) {
	entry, err := resultcache.Decode(payload)
	if err != nil {
		return nil, errf("verify", peer, label, "corrupt result entry: %v", err)
	}
	if entry.Key != key || entry.Code != code {
		return nil, errf("verify", peer, label, "result does not verify: key %s code %.12s (want key %s code %.12s)",
			entry.Key, entry.Code, key, code)
	}
	return entry, nil
}

// answer settles a lease with the worker's result or fail. A worker's
// fail is terminal — a simulation failure is deterministic, every worker
// would fail the same way. A non-nil return drops the worker: it shipped
// bytes that failed decode or digest verification, and an untrustworthy
// worker gets no more leases. held is false once the lease has expired
// (its point is already back in the queue): a late valid answer still
// settles an unsettled point and is a duplicate on a settled one.
func (c *Coordinator) answer(name string, t *task, held bool, m Msg) error {
	var (
		entry   *resultcache.Entry
		failure error
		verr    *Error
	)
	if m.Verb == "fail" {
		failure = errf("run", name, t.label, "%s", m.Payload)
	} else {
		entry, verr = verified(m.Payload, t.key, c.code, name, t.label)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case verr != nil:
		c.stats.Rejected++
		if held {
			c.requeueLocked(t, verr.Msg)
		}
		return verr
	case t.settled:
		c.stats.Duplicates++
	default:
		c.settleLocked(t, entry, failure)
	}
	return nil
}

// --- connection serving ---

// Serve accepts connections until the listener closes.
func (c *Coordinator) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go c.ServeConn(conn)
	}
}

// ServeConn runs the protocol handshake on one connection and serves
// it in its declared role (worker or client). Usable directly with
// in-memory pipes for tests.
func (c *Coordinator) ServeConn(conn io.ReadWriteCloser) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	m, err := ReadMsg(br)
	if err != nil {
		return errf("handshake", "", "", "reading hello: %v", err)
	}
	if m.Verb != "hello" {
		return errf("handshake", "", "", "expected hello, got %s", m.Verb)
	}
	proto, role, code := m.Args[0], m.Args[1], m.Args[2]
	reject := func(format string, args ...any) error {
		e := errf("handshake", "", "", format, args...)
		conn.Write(Msg{Verb: "reject", Payload: []byte(e.Msg)}.Encode())
		c.logf("fleet: rejecting %s: %s", role, e.Msg)
		return e
	}
	if proto != Proto {
		return reject("protocol mismatch: coordinator speaks %s, peer speaks %s", Proto, proto)
	}
	if code != c.code {
		return reject("code digest mismatch: coordinator runs %.12s, peer runs %.12s (rebuild the peer from the same tree)", c.code, code)
	}
	if role != "worker" && role != "client" {
		return reject("unknown role %q", role)
	}
	if _, err := conn.Write(Msg{Verb: "welcome", Args: []string{c.code}}.Encode()); err != nil {
		return errf("handshake", "", "", "writing welcome: %v", err)
	}
	c.mu.Lock()
	c.conns++
	name := fmt.Sprintf("%s-%d", role, c.conns)
	c.mu.Unlock()
	// Unix-socket peers have empty (or "@"-anonymous) remote addresses;
	// only a real address adds information to the name.
	if nc, ok := conn.(net.Conn); ok && nc.RemoteAddr() != nil {
		if a := nc.RemoteAddr().String(); a != "" && a != "@" {
			name += "@" + a
		}
	}
	if role == "worker" {
		return c.serveWorker(conn, br, name)
	}
	return c.serveClient(conn, br, name)
}

// serveWorker is one worker slot's scheduler. The connection carries one
// lease at a time: take the next pending task, write the lease, wait for
// the answer, the heartbeat deadline or the connection's end, repeat. A
// reader goroutine feeds the loop, so an idle worker's disconnect is
// noticed at once (and costs no point an attempt).
func (c *Coordinator) serveWorker(conn io.ReadWriteCloser, br *bufio.Reader, name string) error {
	c.mu.Lock()
	c.stats.Workers++
	c.mu.Unlock()
	c.logf("fleet: %s connected", name)
	msgs, readErr, done := make(chan Msg), make(chan error, 1), make(chan struct{})
	defer close(done)
	go func() {
		for {
			m, err := ReadMsg(br)
			if err != nil {
				readErr <- err
				return
			}
			select {
			case msgs <- m:
			case <-done:
				return
			}
		}
	}()

	var (
		t    *task  // the connection's lease; nil while the worker is idle
		id   string // its id token: the log handle, and a cross-check on every answer
		held bool   // false once the lease expired and its point was re-queued
	)
	ttl := time.NewTimer(time.Hour)
	ttl.Stop()
	defer ttl.Stop()
	// gone ends the connection; a point it still holds goes back in the queue.
	gone := func(why string) {
		c.mu.Lock()
		if t != nil && held && !t.settled {
			c.stats.Reassigned++
			c.requeueLocked(t, "worker lost: "+why)
		}
		c.mu.Unlock()
		c.logf("fleet: %s gone (%s)", name, why)
	}
	for {
		work := c.work
		if t != nil {
			work = nil
		}
		select {
		case <-c.quit:
			return nil
		case err := <-readErr:
			if err == io.EOF {
				gone("disconnected")
				return nil
			}
			gone("read: " + err.Error())
			return err
		case <-work:
			if t, id = c.grant(name); t == nil {
				continue
			}
			held = true
			if _, err := conn.Write(Msg{Verb: "lease", Args: []string{id, fu(t.timeoutMS)}, Payload: t.enc}.Encode()); err != nil {
				gone("write: " + err.Error())
				return err
			}
			ttl.Reset(c.opts.LeaseTTL)
		case <-ttl.C:
			// The heartbeat lapsed: the point goes back in the queue, and
			// the connection keeps waiting — a slow worker's late result
			// is still honoured, and it gets no second lease meanwhile.
			held = false
			c.logf("fleet: lease %s (%s) on %s expired; re-queueing", id, t.label, name)
			c.mu.Lock()
			c.stats.Expired++
			c.requeueLocked(t, "lease expired")
			c.mu.Unlock()
		case m := <-msgs:
			var herr error
			switch m.Verb {
			case "heartbeat", "result", "fail":
				switch {
				case t == nil || m.Args[0] != id:
					herr = errf(m.Verb, name, "", "unknown lease %q", m.Args[0])
				case m.Verb == "heartbeat":
					if held {
						ttl.Reset(c.opts.LeaseTTL)
					}
				default:
					ttl.Stop()
					herr = c.answer(name, t, held, m)
					t = nil
				}
			case "bye":
				gone("bye")
				return nil
			default:
				herr = errf("serve", name, "", "unexpected %s from a worker", m.Verb)
			}
			if herr != nil {
				c.logf("fleet: dropping %s: %v", name, herr)
				gone(herr.Error())
				return herr
			}
		}
	}
}

// serveClient is the same exchange facing the other way: each lease a
// client sends is resolved through runOne (sharing the task table with
// every other submission) and answered with result or fail as it
// finishes. A client may have any number outstanding;
// progress and fail-fast are the client's business. When it hangs
// up its waits are cancelled; points already tabled run to completion.
func (c *Coordinator) serveClient(conn io.ReadWriteCloser, br *bufio.Reader, name string) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wmu sync.Mutex
	for {
		m, err := ReadMsg(br)
		if err == io.EOF || err == nil && m.Verb == "bye" {
			return nil
		}
		if err != nil {
			return errf("serve", name, "", "read: %v", err)
		}
		if m.Verb != "lease" {
			return errf("serve", name, "", "unexpected %s from a client", m.Verb)
		}
		tmoMS, err := leaseTimeout(m)
		if err != nil {
			return err
		}
		go func() {
			out := answerTo(m, func(pt harness.Point) (*resultcache.Entry, error) { return c.runOne(ctx, pt, tmoMS) })
			wmu.Lock()
			defer wmu.Unlock()
			conn.Write(out.Encode())
		}()
	}
}

// answerTo is the receiving half of the one exchange, the same on a
// worker and on a coordinator serving a client: decode the lease's point,
// run it, and answer with its entry as a result or its error as a fail.
func answerTo(lease Msg, run func(harness.Point) (*resultcache.Entry, error)) Msg {
	pt, err := harness.DecodePoint(lease.Payload)
	var entry *resultcache.Entry
	if err == nil {
		entry, err = run(pt)
	}
	if err != nil {
		return Msg{Verb: "fail", Args: lease.Args[:1], Payload: []byte(err.Error())}
	}
	return Msg{Verb: "result", Args: lease.Args[:1], Payload: entry.Encode()}
}

// leaseTimeout decodes a lease line's per-point timeout. The line's id
// is the sender's token: the receiver echoes it and never reads it.
func leaseTimeout(m Msg) (uint64, error) {
	tmoMS, err := wiretext.CanonUint(m.Args[1], math.MaxUint64)
	if err != nil {
		return 0, errf("lease", "", "", "bad timeout %q", m.Args[1])
	}
	return tmoMS, nil
}

// fu formats a uint64 wire token.
func fu(v uint64) string { return strconv.FormatUint(v, 10) }
