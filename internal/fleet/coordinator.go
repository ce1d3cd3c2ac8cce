package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/wiretext"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Cache is the coordinator's result cache. Hits are served directly
	// at submit time — a warm cache means points never lease at all —
	// and every accepted remote result is stored back, witness aliases
	// included, so distributed and local sweeps share one store.
	Cache harness.CacheParams
	// LeaseTTL bounds how long a lease may go without a heartbeat before
	// its point is re-queued (default 10s).
	LeaseTTL time.Duration
	// MaxAttempts caps how many leases one point may consume across
	// worker losses, expiries, and rejections before the sweep fails
	// (default 5).
	MaxAttempts int
	// BackoffBase/BackoffCap shape the re-lease delay after a failed
	// attempt: base << (attempt-1), capped (defaults 100ms / 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Logf, when non-nil, receives fleet lifecycle events.
	Logf func(format string, args ...any)
}

// Stats counts coordinator events; read a snapshot with Coordinator.Stats.
type Stats struct {
	// Workers is the total number of worker connections ever accepted.
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
	// CacheHits counts points served from the coordinator's cache
	// without leasing.
	CacheHits uint64
	// Completed/Failed count settled points.
	Completed uint64
	Failed    uint64
}

// String renders the counters as the one-line fleet summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d workers, %d leases (%d reassigned, %d expired, %d rejected, %d duplicate), %d cache hits, %d completed, %d failed",
		s.Workers, s.Leases, s.Reassigned, s.Expired, s.Rejected, s.Duplicates, s.CacheHits, s.Completed, s.Failed)
}

const (
	taskPending = iota
	taskLeased
	taskDone
	taskFailed
)

// task is one sweep point's lifecycle on the coordinator.
type task struct {
	key       resultcache.Key
	pt        harness.Point
	enc       []byte
	label     string
	noCache   bool
	timeoutMS uint64

	state     int
	attempts  int
	notBefore time.Time
	queued    bool
	entry     *resultcache.Entry
	err       error
	doneCh    chan struct{}
}

// lease is one grant of a task to a worker. It stays registered until
// the worker answers or vanishes — even past expiry — so a late valid
// result from a slow worker is still usable when the point is not yet
// settled.
type lease struct {
	id       uint64
	t        *task
	w        *workerConn
	deadline time.Time
	expired  bool
}

// workerConn is one connected worker.
type workerConn struct {
	name     string
	conn     io.ReadWriteCloser
	out      chan []byte
	quit     chan struct{}
	slots    int
	inflight int
	gone     bool
}

// Coordinator leases sweep points to workers and implements
// harness.Executor, so any sweep runs on a fleet by setting its Exec.
// All submissions — local Submit calls and remote protocol clients —
// share one task table: identical concurrent points dedup to one lease.
// The table holds unsettled tasks only (all of them in all, the
// cacheable ones also by key in tasks): a settled task is forgotten, so
// a later submission of its point is served by the cache or leased
// afresh, and a late result still reaches it through its lease.
type Coordinator struct {
	opts CoordinatorOptions
	code string

	mu       sync.Mutex
	tasks    map[resultcache.Key]*task
	all      map[*task]struct{}
	queue    []*task
	workers  []*workerConn
	leases   map[uint64]*lease
	nextID   uint64
	nWorkers int
	stats    Stats
	closed   bool

	wake chan struct{}
	quit chan struct{}
}

// NewCoordinator builds a coordinator and starts its scheduler.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 100 * time.Millisecond
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = 5 * time.Second
	}
	c := &Coordinator{
		opts:   opts,
		code:   harness.CodeID(),
		tasks:  make(map[resultcache.Key]*task),
		all:    make(map[*task]struct{}),
		leases: make(map[uint64]*lease),
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
	go c.scheduler()
	return c
}

var _ harness.Executor = (*Coordinator)(nil)

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

// Close shuts the coordinator down: pending points fail, workers are
// disconnected, the scheduler stops. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.quit)
	for t := range c.all {
		c.failLocked(t, errf("submit", "", t.label, "coordinator closed"))
	}
	workers := append([]*workerConn(nil), c.workers...)
	c.mu.Unlock()
	for _, w := range workers {
		w.conn.Close()
	}
	return nil
}

// Submit implements harness.Executor: the batch's points are leased to
// the connected workers (cache hits short-circuit), honouring the
// executor contract — results slotted by index, groups sequential in
// submission order, first failure fails the batch.
func (c *Coordinator) Submit(ctx context.Context, batch harness.Batch) ([]harness.PointResult, error) {
	entries, err := c.submit(ctx, batch)
	if err != nil {
		return nil, err
	}
	results := make([]harness.PointResult, len(entries))
	for i, e := range entries {
		results[i] = pointResult(e)
	}
	return results, nil
}

// pointResult rebuilds a sweep result from a verified entry.
func pointResult(e *resultcache.Entry) harness.PointResult {
	return harness.PointResult{RunResult: harness.ResultFromEntry(e), Origin: e.Origin}
}

// submit resolves the batch to its per-point cache entries — what the
// protocol server ships to remote clients and Submit turns into
// results. Chains wait on remote workers, not on local cores, so all of
// them are in flight at once.
func (c *Coordinator) submit(ctx context.Context, batch harness.Batch) ([]*resultcache.Entry, error) {
	return harness.RunChains(ctx, batch, len(batch.Points),
		func(ctx context.Context, pt harness.Point) (*resultcache.Entry, error) {
			return c.runOne(ctx, pt, batch.PointTimeout)
		})
}

// runOne resolves one point to its entry: cache hit, dedup against an
// in-flight identical point, or a fresh task leased to the fleet.
func (c *Coordinator) runOne(ctx context.Context, pt harness.Point, timeout time.Duration) (*resultcache.Entry, error) {
	key, err := harness.PointKey(c.code, pt) // validates the point
	if err != nil {
		return nil, err
	}
	cp := c.opts.Cache
	if cp.Cache != nil && !pt.NoCache {
		if entry, _ := cp.Cache.Get(key); entry != nil {
			c.mu.Lock()
			c.stats.CacheHits++
			c.mu.Unlock()
			return entry, nil
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errf("submit", "", pt.Label(), "coordinator closed")
	}
	var t *task
	if !pt.NoCache {
		t = c.tasks[key]
	}
	if t == nil {
		t = &task{
			key: key, pt: pt, enc: pt.Encode(), label: pt.Label(),
			noCache: pt.NoCache, timeoutMS: timeoutMS(timeout),
			state: taskPending, queued: true,
			doneCh: make(chan struct{}),
		}
		if !pt.NoCache {
			c.tasks[key] = t
		}
		c.all[t] = struct{}{}
		c.queue = append(c.queue, t)
	}
	c.mu.Unlock()
	c.wakeUp()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.doneCh:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return t.entry, t.err
}

// timeoutMS is a point timeout as the wire carries it: whole
// milliseconds, rounded up so a sub-millisecond limit stays a limit.
func timeoutMS(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64((d + time.Millisecond - 1) / time.Millisecond)
}

// --- scheduler ---

func (c *Coordinator) wakeUp() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *Coordinator) scheduler() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-c.wake:
		case <-timer.C:
		}
		c.mu.Lock()
		next := c.scheduleLocked(time.Now())
		c.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(next)
	}
}

// scheduleLocked expires stale leases, assigns runnable tasks to free
// worker slots, and returns how long the scheduler may sleep.
func (c *Coordinator) scheduleLocked(now time.Time) time.Duration {
	// Expire leases whose heartbeat lapsed: the point goes back in the
	// queue; the lease record stays so a late result is still honoured.
	for _, l := range c.leases {
		if !l.expired && now.After(l.deadline) {
			l.expired = true
			c.stats.Expired++
			c.logf("fleet: lease %d (%s) on %s expired; re-queueing", l.id, l.t.label, l.w.name)
			c.requeueLocked(l.t, now, "lease expired")
		}
	}
	// Compact settled tasks out of the queue, then assign.
	live := c.queue[:0]
	for _, t := range c.queue {
		if t.state == taskDone || t.state == taskFailed {
			t.queued = false
			continue
		}
		live = append(live, t)
	}
	c.queue = live
	for {
		ti := -1
		for i, t := range c.queue {
			if t.state == taskPending && !t.notBefore.After(now) {
				ti = i
				break
			}
		}
		if ti < 0 {
			break
		}
		var w *workerConn
		for _, cand := range c.workers {
			if !cand.gone && cand.inflight < cand.slots {
				w = cand
				break
			}
		}
		if w == nil {
			break
		}
		t := c.queue[ti]
		c.queue = append(c.queue[:ti], c.queue[ti+1:]...)
		t.queued = false
		c.leaseLocked(t, w, now)
	}
	// Sleep until the next deadline in play.
	next := time.Hour
	for _, l := range c.leases {
		if !l.expired {
			if d := l.deadline.Sub(now); d < next {
				next = d
			}
		}
	}
	for _, t := range c.queue {
		if t.state == taskPending && t.notBefore.After(now) {
			if d := t.notBefore.Sub(now); d < next {
				next = d
			}
		}
	}
	if next < time.Millisecond {
		next = time.Millisecond
	}
	return next
}

func (c *Coordinator) leaseLocked(t *task, w *workerConn, now time.Time) {
	c.nextID++
	l := &lease{id: c.nextID, t: t, w: w, deadline: now.Add(c.opts.LeaseTTL)}
	c.leases[l.id] = l
	t.state = taskLeased
	t.attempts++
	w.inflight++
	c.stats.Leases++
	c.logf("fleet: lease %d: %s -> %s (attempt %d)", l.id, t.label, w.name, t.attempts)
	c.sendLocked(w, Msg{Verb: "lease", Args: []string{fu(l.id), fu(t.timeoutMS)}, Payload: t.enc})
}

// requeueLocked puts an unsettled task back in the queue with backoff,
// failing it once its lease budget is exhausted.
func (c *Coordinator) requeueLocked(t *task, now time.Time, why string) {
	if t.state == taskDone || t.state == taskFailed {
		return
	}
	if t.attempts >= c.opts.MaxAttempts {
		c.failLocked(t, errf("lease", "", t.label, "gave up after %d attempts (%s)", t.attempts, why))
		return
	}
	t.state = taskPending
	backoff := c.opts.BackoffBase << uint(t.attempts-1)
	if backoff > c.opts.BackoffCap || backoff <= 0 {
		backoff = c.opts.BackoffCap
	}
	t.notBefore = now.Add(backoff)
	if !t.queued {
		t.queued = true
		c.queue = append(c.queue, t)
	}
}

func (c *Coordinator) failLocked(t *task, err error) {
	t.err = err
	t.state = taskFailed
	c.stats.Failed++
	c.settledLocked(t)
}

// settledLocked releases a settled task's waiters and drops it from the
// task table.
func (c *Coordinator) settledLocked(t *task) {
	if c.tasks[t.key] == t {
		delete(c.tasks, t.key)
	}
	delete(c.all, t)
	close(t.doneCh)
}

// completeLocked settles a task with its verified entry, feeding the
// coordinator cache and publishing the point's witness aliases.
func (c *Coordinator) completeLocked(t *task, entry *resultcache.Entry) {
	if cp := c.opts.Cache; cp.Cache != nil && !t.noCache {
		cp.Cache.Put(entry)
		harness.StoreWitnessAliases(cp.Cache, t.pt, entry)
	}
	t.entry = entry
	t.state = taskDone
	c.stats.Completed++
	c.settledLocked(t)
}

// sendLocked queues a message on a worker's writer; a full queue means
// the worker stopped draining and is dropped.
func (c *Coordinator) sendLocked(w *workerConn, m Msg) {
	select {
	case w.out <- m.Encode():
	default:
		c.markGoneLocked(w, "write queue overflow")
	}
}

// markGoneLocked removes a worker and re-queues everything it held.
func (c *Coordinator) markGoneLocked(w *workerConn, why string) {
	if w.gone {
		return
	}
	w.gone = true
	for i, cand := range c.workers {
		if cand == w {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
	now := time.Now()
	for id, l := range c.leases {
		if l.w != w {
			continue
		}
		delete(c.leases, id)
		if l.t.state == taskDone || l.t.state == taskFailed {
			continue
		}
		c.stats.Reassigned++
		c.requeueLocked(l.t, now, "worker lost: "+why)
	}
	close(w.quit)
	w.conn.Close()
	c.logf("fleet: %s gone (%s)", w.name, why)
	c.wakeLocked()
}

func (c *Coordinator) wakeLocked() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *Coordinator) dropWorker(w *workerConn, why string) {
	c.mu.Lock()
	c.markGoneLocked(w, why)
	c.mu.Unlock()
}

// --- worker-facing protocol ---

// handleResult verifies and settles a completed lease. A non-nil error
// drops the worker: it shipped bytes that failed decode or digest
// verification, and an untrustworthy worker gets no more leases.
func (c *Coordinator) handleResult(w *workerConn, id uint64, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[id]
	if !ok || l.w != w {
		return errf("result", w.name, "", "unknown lease %d", id)
	}
	delete(c.leases, id)
	w.inflight--
	t := l.t
	defer c.wakeLocked()
	entry, err := resultcache.Decode(payload)
	if err != nil {
		c.stats.Rejected++
		c.requeueLocked(t, time.Now(), "corrupt result")
		return errf("verify", w.name, t.label, "corrupt result entry: %v", err)
	}
	// The canonical key/digest check: the entry must carry exactly the
	// key this coordinator derived for the point, under the same code
	// digest. Anything else is a divergent simulation or a mixed build.
	if entry.Key != t.key || entry.Code != c.code {
		c.stats.Rejected++
		c.requeueLocked(t, time.Now(), "divergent result")
		return errf("verify", w.name, t.label, "result does not verify: key %s code %.12s (want key %s code %.12s)",
			entry.Key, entry.Code, t.key, c.code)
	}
	if t.state == taskDone || t.state == taskFailed {
		c.stats.Duplicates++
		return nil
	}
	c.completeLocked(t, entry)
	return nil
}

// handleFail settles a lease whose point failed on the worker. A
// simulation failure is deterministic — every worker would fail the
// same way — so it is terminal, not retried.
func (c *Coordinator) handleFail(w *workerConn, id uint64, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[id]
	if !ok || l.w != w {
		return errf("fail", w.name, "", "unknown lease %d", id)
	}
	delete(c.leases, id)
	w.inflight--
	t := l.t
	defer c.wakeLocked()
	if t.state == taskDone || t.state == taskFailed {
		c.stats.Duplicates++
		return nil
	}
	c.failLocked(t, errf("run", w.name, t.label, "%s", payload))
	return nil
}

func (c *Coordinator) heartbeat(w *workerConn, id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.leases[id]; ok && l.w == w && !l.expired {
		l.deadline = time.Now().Add(c.opts.LeaseTTL)
	}
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
	c.nWorkers++
	name := fmt.Sprintf("%s-%d", role, c.nWorkers)
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

func (c *Coordinator) serveWorker(conn io.ReadWriteCloser, br *bufio.Reader, name string) error {
	w := &workerConn{name: name, conn: conn, out: make(chan []byte, 256), quit: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errf("serve", name, "", "coordinator closed")
	}
	c.workers = append(c.workers, w)
	c.stats.Workers++
	c.mu.Unlock()
	c.logf("fleet: %s connected", name)
	go func() {
		for {
			select {
			case <-w.quit:
				return
			case b := <-w.out:
				if _, err := conn.Write(b); err != nil {
					c.dropWorker(w, "write: "+err.Error())
					return
				}
			}
		}
	}()
	for {
		m, err := ReadMsg(br)
		if err != nil {
			why := "disconnected"
			if err != io.EOF {
				why = "read: " + err.Error()
			}
			c.dropWorker(w, why)
			if err == io.EOF {
				return nil
			}
			return err
		}
		var herr error
		switch m.Verb {
		case "ready":
			n, err := wiretext.CanonUint(m.Args[0], 1024)
			if err != nil || n == 0 {
				herr = errf("serve", w.name, "", "bad slot count %q", m.Args[0])
				break
			}
			c.mu.Lock()
			w.slots = int(n)
			c.mu.Unlock()
			c.wakeUp()
		case "heartbeat":
			id, err := wiretext.CanonUint(m.Args[0], math.MaxUint64)
			if err != nil {
				herr = errf("serve", w.name, "", "bad heartbeat id %q", m.Args[0])
				break
			}
			c.heartbeat(w, id)
		case "result", "fail":
			id, err := wiretext.CanonUint(m.Args[0], math.MaxUint64)
			if err != nil {
				herr = errf("serve", w.name, "", "bad lease id %q", m.Args[0])
				break
			}
			if m.Verb == "result" {
				herr = c.handleResult(w, id, m.Payload)
			} else {
				herr = c.handleFail(w, id, m.Payload)
			}
		case "bye":
			c.dropWorker(w, "bye")
			return nil
		default:
			herr = errf("serve", w.name, "", "unexpected %s from a worker", m.Verb)
		}
		if herr != nil {
			c.logf("fleet: dropping %s: %v", w.name, herr)
			c.dropWorker(w, herr.Error())
			return herr
		}
	}
}

// serveClient receives a remote batch, runs it through submit (sharing
// the task table and cache with every other submission), and streams
// back progress, per-point entries, and completion.
func (c *Coordinator) serveClient(conn io.ReadWriteCloser, br *bufio.Reader, name string) error {
	var wmu sync.Mutex
	send := func(m Msg) error {
		wmu.Lock()
		defer wmu.Unlock()
		_, err := conn.Write(m.Encode())
		return err
	}
	m, err := ReadMsg(br)
	if err != nil {
		return errf("serve", name, "", "reading submit: %v", err)
	}
	if m.Verb != "submit" {
		return errf("serve", name, "", "expected submit, got %s", m.Verb)
	}
	n, err := wiretext.CanonUint(m.Args[0], 1<<20)
	if err != nil {
		return errf("serve", name, "", "bad batch size %q", m.Args[0])
	}
	tmoMS, err := wiretext.CanonUint(m.Args[1], math.MaxUint64)
	if err != nil {
		return errf("serve", name, "", "bad timeout %q", m.Args[1])
	}
	var pts []harness.Point // grown as points arrive, never sized from the peer's n
	for i := uint64(0); i < n; i++ {
		m, err := ReadMsg(br)
		if err != nil {
			return errf("serve", name, "", "reading point %d: %v", i, err)
		}
		if m.Verb != "point" {
			return errf("serve", name, "", "expected point %d, got %s", i, m.Verb)
		}
		if idx, err := wiretext.CanonUint(m.Args[0], n-1); err != nil || idx != i {
			return errf("serve", name, "", "out-of-order point %s (want %d)", m.Args[0], i)
		}
		pt, err := harness.DecodePoint(m.Payload)
		if err != nil {
			e := errf("serve", name, "", "point %d: %v", i, err)
			send(Msg{Verb: "perr", Args: []string{fu(i)}, Payload: []byte(e.Msg)})
			return e
		}
		pts = append(pts, pt)
	}
	if m, err := ReadMsg(br); err != nil || m.Verb != "end" {
		return errf("serve", name, "", "expected end (err=%v)", err)
	}
	c.logf("fleet: %s submitted %d points", name, n)
	batch := harness.Batch{
		Points:       pts,
		PointTimeout: time.Duration(tmoMS) * time.Millisecond,
		Progress: func(done, total int) {
			send(Msg{Verb: "prog", Args: []string{strconv.Itoa(done), strconv.Itoa(total)}})
		},
	}
	entries, err := c.submit(context.Background(), batch)
	if err != nil {
		send(Msg{Verb: "perr", Args: []string{"0"}, Payload: []byte(err.Error())})
		return errf("serve", name, "", "batch failed: %v", err)
	}
	for i, e := range entries {
		if err := send(Msg{Verb: "done", Args: []string{strconv.Itoa(i)}, Payload: e.Encode()}); err != nil {
			return errf("serve", name, "", "writing result %d: %v", i, err)
		}
	}
	if err := send(Msg{Verb: "complete"}); err != nil {
		return errf("serve", name, "", "writing complete: %v", err)
	}
	ReadMsg(br) // wait for bye or EOF; content irrelevant
	return nil
}

// fu formats a uint64 wire token.
func fu(v uint64) string { return strconv.FormatUint(v, 10) }
