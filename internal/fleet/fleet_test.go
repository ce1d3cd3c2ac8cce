package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/resultcache"
)

// tinyPoint is a fast, distinct-per-seed sweep point.
func tinyPoint(seed uint64) harness.Point {
	ecfg := em3d.Tiny()
	ecfg.Seed = seed
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	return harness.Point{Cfg: cfg, System: harness.SysStache, EM3D: &ecfg}
}

// dirCache opens a result cache on dir.
func dirCache(t *testing.T, dir string) harness.CacheParams {
	t.Helper()
	c, err := resultcache.New(resultcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return harness.CacheParams{Cache: c}
}

// fastOpts is a coordinator tuned for test-speed fault handling.
func fastOpts() CoordinatorOptions {
	return CoordinatorOptions{LeaseTTL: 60 * time.Millisecond} // re-lease delay 0.6 ms … 30 ms
}

// steadyOpts is fastOpts for the tests that count the leases granted to
// healthy workers: its TTL is out of reach of scheduling noise. Under
// -race on two processors a 10 ms heartbeat has been seen 61 ms late,
// which expires a 60 ms lease and leases the point a second time.
func steadyOpts() CoordinatorOptions {
	opts := fastOpts()
	opts.LeaseTTL = time.Minute
	return opts
}

func newTestCoordinator(t *testing.T, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	if testing.Verbose() {
		opts.Logf = t.Logf
	}
	co := NewCoordinator(opts)
	t.Cleanup(func() { co.Close() })
	return co
}

// startWorkers attaches n in-process workers — a worker running n slots.
func startWorkers(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		startWorker(t, co, WorkerOptions{})
	}
}

// startWorker attaches an in-process worker over a pipe.
func startWorker(t *testing.T, co *Coordinator, opts WorkerOptions) {
	t.Helper()
	if opts.HeartbeatEvery == 0 {
		opts.HeartbeatEvery = 10 * time.Millisecond
	}
	a, b := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.ServeConn(a)
	go RunWorker(ctx, b, opts)
}

// serveOnSocket serves the coordinator on a unix socket for the test's
// duration and returns the address a Client dials.
func serveOnSocket(t *testing.T, co *Coordinator) string {
	t.Helper()
	ln, sock := listenTemp(t)
	go co.Serve(ln)
	return sock
}

// listenTemp listens on a unix socket that lives as long as the test.
func listenTemp(t *testing.T) (net.Listener, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "fleet.sock")
	ln, err := Listen(sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln, sock
}

// script is a hand-driven protocol peer for fault injection.
type script struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// connectScript opens a raw connection to the coordinator and completes
// the handshake in the given role.
func connectScript(t *testing.T, co *Coordinator, role string) *script {
	t.Helper()
	a, b := net.Pipe()
	go co.ServeConn(a)
	b.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { b.Close() })
	s := &script{t: t, conn: b, br: bufio.NewReader(b)}
	s.send(Msg{Verb: "hello", Args: []string{Proto, role, harness.CodeID()}})
	if m := s.read(); m.Verb != "welcome" {
		t.Fatalf("handshake: got %s, want welcome", m.Verb)
	}
	return s
}

func (s *script) send(m Msg) {
	s.t.Helper()
	if _, err := s.conn.Write(m.Encode()); err != nil {
		s.t.Fatalf("script write: %v", err)
	}
}

func (s *script) read() Msg {
	s.t.Helper()
	m, err := ReadMsg(s.br)
	if err != nil {
		s.t.Fatalf("script read: %v", err)
	}
	return m
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sameRun compares the simulated content of two results, ignoring the
// engine.* counters a local fresh run carries and a wire entry (by
// design) does not.
func sameRun(t *testing.T, label string, got, want harness.RunResult) {
	t.Helper()
	if got.System != want.System || got.App != want.App {
		t.Errorf("%s: identity differs: %s/%s vs %s/%s", label, got.System, got.App, want.System, want.App)
	}
	if got.Res.Cycles != want.Res.Cycles || got.Res.ROICycles != want.Res.ROICycles {
		t.Errorf("%s: cycles differ: %d/%d vs %d/%d", label,
			got.Res.Cycles, got.Res.ROICycles, want.Res.Cycles, want.Res.ROICycles)
	}
	ctrs := func(rr harness.RunResult) map[string]uint64 {
		m := make(map[string]uint64)
		for _, name := range rr.Res.Counters.Names() {
			if !strings.HasPrefix(name, "engine.") {
				m[name] = rr.Res.Counters.Get(name)
			}
		}
		return m
	}
	if g, w := ctrs(got), ctrs(want); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: counters differ:\n%v\n%v", label, g, w)
	}
	if !reflect.DeepEqual(got.Res.Net, want.Res.Net) {
		t.Errorf("%s: network stats differ", label)
	}
}

// localBaseline runs the same points on the in-process pool.
func localBaseline(t *testing.T, pts []harness.Point) []harness.PointResult {
	t.Helper()
	res, err := harness.LocalExecutor{Workers: 2}.Submit(context.Background(), harness.Batch{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFleetMatchesLocal(t *testing.T) {
	pts := []harness.Point{tinyPoint(1), tinyPoint(2), tinyPoint(3), tinyPoint(4)}
	co := newTestCoordinator(t, fastOpts())
	startWorker(t, co, WorkerOptions{})
	startWorker(t, co, WorkerOptions{})
	got, err := co.Submit(context.Background(), harness.Batch{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	want := localBaseline(t, pts)
	for i := range pts {
		sameRun(t, pts[i].Label(), got[i].RunResult, want[i].RunResult)
	}
	if s := co.Stats(); s.Completed != 4 || s.Failed != 0 {
		t.Errorf("stats: %+v", s)
	}
}

// TestFleetFaultPaths drives each injected failure through a scripted
// first worker and checks the sweep still converges, on a healthy
// second worker, to the same results the local pool produces.
func TestFleetFaultPaths(t *testing.T) {
	pts := []harness.Point{tinyPoint(11), tinyPoint(12), tinyPoint(13)}
	want := localBaseline(t, pts)

	divergent := func() []byte {
		e := &resultcache.Entry{Code: harness.CodeID(), System: "typhoon-stache", App: "em3d",
			Cycles: 1, ROI: 1, Counters: map[string]uint64{}}
		e.Key = resultcache.Key{0xde, 0xad}
		return e.Encode()
	}

	cases := []struct {
		name string
		// respond handles one lease on the scripted worker; returning
		// false stops the script (connection stays open but silent).
		respond func(s *script, id string, payload []byte) bool
		check   func(t *testing.T, s Stats)
	}{
		{
			name: "kill-worker-mid-lease",
			respond: func(s *script, id string, payload []byte) bool {
				s.conn.Close()
				return false
			},
			check: func(t *testing.T, s Stats) {
				if s.Reassigned == 0 {
					t.Errorf("no reassignment recorded: %+v", s)
				}
			},
		},
		{
			name: "lease-expiry-under-stalled-worker",
			respond: func(s *script, id string, payload []byte) bool {
				return false // hold the lease silently; no heartbeat, no result
			},
			check: func(t *testing.T, s Stats) {
				if s.Expired == 0 {
					t.Errorf("no expiry recorded: %+v", s)
				}
			},
		},
		{
			name: "corrupted-result",
			respond: func(s *script, id string, payload []byte) bool {
				s.send(Msg{Verb: "result", Args: []string{id}, Payload: []byte("not an entry")})
				return false
			},
			check: func(t *testing.T, s Stats) {
				if s.Rejected == 0 {
					t.Errorf("no rejection recorded: %+v", s)
				}
			},
		},
		{
			name: "divergent-result",
			respond: func(s *script, id string, payload []byte) bool {
				s.send(Msg{Verb: "result", Args: []string{id}, Payload: divergent()})
				return false
			},
			check: func(t *testing.T, s Stats) {
				if s.Rejected == 0 {
					t.Errorf("no rejection recorded: %+v", s)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co := newTestCoordinator(t, fastOpts())
			s := connectScript(t, co, "worker")
			// The scripted worker must hold a lease before the healthy
			// worker joins, so the injected fault is actually exercised.
			leased := make(chan struct{})
			go func() {
				m, err := ReadMsg(s.br)
				if err != nil || m.Verb != "lease" {
					close(leased)
					return
				}
				close(leased)
				tc.respond(s, m.Args[0], m.Payload)
			}()
			results := make(chan error, 1)
			var got []harness.PointResult
			go func() {
				var err error
				got, err = co.Submit(context.Background(), harness.Batch{Points: pts})
				results <- err
			}()
			<-leased
			startWorkers(t, co, 2)
			if err := <-results; err != nil {
				t.Fatal(err)
			}
			for i := range pts {
				sameRun(t, pts[i].Label(), got[i].RunResult, want[i].RunResult)
			}
			tc.check(t, co.Stats())
		})
	}
}

// TestFleetDuplicateCompletion has a slow worker answer a lease the
// coordinator already re-assigned and saw completed: the late valid
// result is counted as a duplicate and the first result stands.
func TestFleetDuplicateCompletion(t *testing.T) {
	pt := tinyPoint(21)
	co := newTestCoordinator(t, fastOpts())
	s := connectScript(t, co, "worker")
	done := make(chan error, 1)
	go func() {
		_, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}})
		done <- err
	}()
	m := s.read()
	if m.Verb != "lease" {
		t.Fatalf("got %s, want lease", m.Verb)
	}
	// Stall past the TTL, let a healthy worker complete the point...
	waitFor(t, "lease expiry", func() bool { return co.Stats().Expired >= 1 })
	startWorker(t, co, WorkerOptions{})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// ...then deliver the stalled worker's (valid) result late.
	leasedPt, err := harness.DecodePoint(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	_, entry, err := harness.RunPointEntry(harness.CacheParams{}, leasedPt)
	if err != nil {
		t.Fatal(err)
	}
	s.send(Msg{Verb: "result", Args: []string{m.Args[0]}, Payload: entry.Encode()})
	waitFor(t, "duplicate accounting", func() bool { return co.Stats().Duplicates >= 1 })
	if s := co.Stats(); s.Completed != 1 {
		t.Errorf("first valid result should win exactly once: %+v", s)
	}
}

// TestFleetLateResultSettlesUnsettledPoint is the other half: the lease
// expires with no other worker attached, so the point is still unsettled
// when the slow worker's valid result arrives on the connection that
// kept waiting for it. The result settles the point — it is not a
// duplicate, and the point is not leased a second time.
func TestFleetLateResultSettlesUnsettledPoint(t *testing.T) {
	pt := tinyPoint(22)
	co := newTestCoordinator(t, fastOpts())
	s := connectScript(t, co, "worker")
	type outcome struct {
		res []harness.PointResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}})
		done <- outcome{res, err}
	}()
	m := s.read()
	if m.Verb != "lease" {
		t.Fatalf("got %s, want lease", m.Verb)
	}
	waitFor(t, "lease expiry", func() bool { return co.Stats().Expired >= 1 })
	_, entry, err := harness.RunPointEntry(harness.CacheParams{}, pt)
	if err != nil {
		t.Fatal(err)
	}
	s.send(Msg{Verb: "result", Args: []string{m.Args[0]}, Payload: entry.Encode()})
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	sameRun(t, pt.Label(), o.res[0].RunResult, localBaseline(t, []harness.Point{pt})[0].RunResult)
	if s := co.Stats(); s.Leases != 1 || s.Expired != 1 || s.Duplicates != 0 || s.Completed != 1 {
		t.Errorf("stats = %+v, want one lease, expired once, settled by its own late result", s)
	}
	tableEmpty(t, co)
}

// TestFleetIdleDisconnectCostsNoAttempt: a connected worker that never
// held a lease hangs up. Nothing is reassigned, and the next point
// leases exactly once, to the worker that is still there.
func TestFleetIdleDisconnectCostsNoAttempt(t *testing.T) {
	pt := tinyPoint(23)
	opts := steadyOpts()
	noticed := make(chan struct{}, 1)
	opts.Logf = func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "gone (disconnected)") {
			select {
			case noticed <- struct{}{}:
			default: // the healthy worker's own goodbye, at cleanup
			}
		}
	}
	co := NewCoordinator(opts)
	t.Cleanup(func() { co.Close() })
	idle := connectScript(t, co, "worker")
	waitFor(t, "idle worker accepted", func() bool { return co.Stats().Workers == 1 })
	idle.conn.Close()
	select { // noticed at once: no lease has to bounce off the dead connection first
	case <-noticed:
	case <-time.After(10 * time.Second):
		t.Fatal("the idle worker's disconnect went unnoticed with no work pending")
	}
	startWorker(t, co, WorkerOptions{})
	if _, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}}); err != nil {
		t.Fatal(err)
	}
	if s := co.Stats(); s.Workers != 2 || s.Leases != 1 || s.Reassigned != 0 || s.Completed != 1 {
		t.Errorf("stats = %+v, want one lease to the healthy worker and nothing reassigned", s)
	}
	tableEmpty(t, co)
}

// TestFleetMaxAttemptsExhausted: every worker returns garbage, so the
// point burns its lease budget and the sweep fails with a structured
// error naming the point.
func TestFleetMaxAttemptsExhausted(t *testing.T) {
	pt := tinyPoint(31)
	opts := steadyOpts()
	opts.MaxAttempts = 2
	co := newTestCoordinator(t, opts)
	for i := 0; i < 2; i++ {
		s := connectScript(t, co, "worker")
		go func(s *script) {
			m, err := ReadMsg(s.br)
			if err != nil || m.Verb != "lease" {
				return
			}
			s.send(Msg{Verb: "result", Args: []string{m.Args[0]}, Payload: []byte("garbage")})
		}(s)
	}
	_, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}})
	if err == nil {
		t.Fatal("sweep succeeded on garbage results")
	}
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %T %v, want *fleet.Error", err, err)
	}
	if !strings.Contains(err.Error(), "gave up after 2 attempts") || !strings.Contains(err.Error(), pt.Label()) {
		t.Errorf("error should name the point and the exhausted budget: %v", err)
	}
	// The failure was the fleet's, not the point's: once a healthy worker
	// joins, the same point must lease afresh instead of being answered
	// with the stale error — the task table forgets settled tasks.
	tableEmpty(t, co)
	leased := co.Stats().Leases
	startWorker(t, co, WorkerOptions{})
	res, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}})
	if err != nil {
		t.Fatalf("resubmission with a healthy worker attached: %v", err)
	}
	if got := co.Stats().Leases; got != leased+1 {
		t.Errorf("resubmission granted %d leases, want 1", got-leased)
	}
	sameRun(t, pt.Label(), res[0].RunResult, localBaseline(t, []harness.Point{pt})[0].RunResult)
	tableEmpty(t, co)
}

// tableEmpty asserts the coordinator holds no task once every
// submission has settled.
func tableEmpty(t *testing.T, co *Coordinator) {
	t.Helper()
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.tasks) != 0 || len(co.pending) != 0 {
		t.Errorf("settled coordinator still holds %d keyed / %d pending tasks", len(co.tasks), len(co.pending))
	}
}

// TestFleetBadMachineConfigRefusedAtSubmit pins where a point whose
// machine config machine.New would panic on stops: at the coordinator's
// submit, with no worker attached — it is never leased, so it can never
// reach (and kill) a worker process.
func TestFleetBadMachineConfigRefusedAtSubmit(t *testing.T) {
	co := newTestCoordinator(t, fastOpts())
	for want, mutate := range map[string]func(*machine.Config){
		"block size 48 is not a power of two":  func(c *machine.Config) { c.BlockSize = 48 },
		"network latency of 4294967297 cycles": func(c *machine.Config) { c.NetLatency = machine.MaxCycles + 1 },
	} {
		pt := tinyPoint(43)
		mutate(&pt.Cfg)
		_, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("coordinator: err = %v, want the point refused for %q", err, want)
		}
	}
	if s := co.Stats(); s.Leases != 0 {
		t.Errorf("refused points were leased %d times", s.Leases)
	}
}

// TestFleetSetupFailureFailsLeaseNotWorker is the twin for a point that
// is fine on its face — it passes submit and is leased — but cannot be
// set up (an em3d graph of no nodes): the worker answers
// the lease with a fail naming the point and the phase, and is still
// there to run the next lease.
func TestFleetSetupFailureFailsLeaseNotWorker(t *testing.T) {
	bad := tinyPoint(44)
	bad.EM3D = &em3d.Config{}
	co := newTestCoordinator(t, fastOpts())
	startWorker(t, co, WorkerOptions{})
	_, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{bad}})
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != "run" || !strings.Contains(fe.Msg, "harness: "+bad.Label()+": setup: ") {
		t.Fatalf("err = %v, want the worker's fail reply naming the point and the set-up phase", err)
	}
	good := tinyPoint(45)
	got, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{good}})
	if err != nil {
		t.Fatalf("the worker did not survive the bad lease: %v", err)
	}
	sameRun(t, good.Label(), got[0].RunResult, localBaseline(t, []harness.Point{good})[0].RunResult)
	if s := co.Stats(); s.Workers != 1 || s.Leases != 2 || s.Failed != 1 || s.Completed != 1 || s.Reassigned != 0 {
		t.Errorf("stats = %+v, want one worker serving both leases: one failed, one completed", s)
	}
}

func TestFleetHandshakeRejects(t *testing.T) {
	co := newTestCoordinator(t, fastOpts())
	cases := []struct {
		name  string
		hello Msg
		want  string
	}{
		{"protocol skew", Msg{Verb: "hello", Args: []string{"tempest-fleet/9", "worker", harness.CodeID()}}, "protocol mismatch"},
		{"code skew", Msg{Verb: "hello", Args: []string{Proto, "worker", "0123456789abcdef"}}, "code digest mismatch"},
		{"unknown role", Msg{Verb: "hello", Args: []string{Proto, "gopher", harness.CodeID()}}, "unknown role"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			go co.ServeConn(a)
			defer b.Close()
			b.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := b.Write(tc.hello.Encode()); err != nil {
				t.Fatal(err)
			}
			m, err := ReadMsg(bufio.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			if m.Verb != "reject" || !strings.Contains(string(m.Payload), tc.want) {
				t.Errorf("got %s %q, want reject mentioning %q", m.Verb, m.Payload, tc.want)
			}
		})
	}
}

// TestFleetWorkerCacheServesRepeatLeases: the coordinator keeps no
// cache, so a resubmitted batch is leased again, and the worker answers
// it from its cache directory. That directory is the one place the results
// live: a local pool pointed at it is served without simulating.
func TestFleetWorkerCacheServesRepeatLeases(t *testing.T) {
	pts := []harness.Point{tinyPoint(51), tinyPoint(52)}
	dir := t.TempDir()
	wcache := dirCache(t, dir)
	co := newTestCoordinator(t, steadyOpts())
	startWorker(t, co, WorkerOptions{Cache: wcache})
	for pass := 0; pass < 2; pass++ {
		if _, err := co.Submit(context.Background(), harness.Batch{Points: pts}); err != nil {
			t.Fatal(err)
		}
	}
	if s := co.Stats(); s.Leases != 4 || s.Completed != 4 {
		t.Errorf("coordinator stats = %+v, want every point leased on both passes", s)
	}
	if s := wcache.Cache.Stats(); s.Misses != 2 || s.Stores != 2 || s.Hits != 2 {
		t.Errorf("worker cache stats = %+v, want 2 cold misses stored, 2 warm hits", s)
	}
	local := dirCache(t, dir)
	got, err := harness.LocalExecutor{Workers: 1, Cache: local}.Submit(context.Background(), harness.Batch{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	if s := local.Cache.Stats(); s.Hits != 2 || s.Misses != 0 {
		t.Errorf("local cache stats = %+v, want the fleet's entries to serve both points", s)
	}
	want := localBaseline(t, pts)
	for i := range pts {
		sameRun(t, pts[i].Label(), got[i].RunResult, want[i].RunResult)
	}
}

// TestFleetDedupsConcurrentIdenticalPoints: two identical points in one
// batch share a single lease (in-flight dedup by point key).
func TestFleetDedupsConcurrentIdenticalPoints(t *testing.T) {
	pt := tinyPoint(61)
	co := newTestCoordinator(t, steadyOpts())
	startWorkers(t, co, 2)
	got, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt, pt}})
	if err != nil {
		t.Fatal(err)
	}
	if s := co.Stats(); s.Leases != 1 || s.Completed != 1 {
		t.Errorf("identical points should share one lease: %+v", s)
	}
	sameRun(t, "dedup pair", got[0].RunResult, got[1].RunResult)
}

// TestFleetClientEndToEnd exercises the full remote-submission path
// over a Unix socket: client -> coordinator -> worker and back, with
// progress streaming and client-side verification.
func TestFleetClientEndToEnd(t *testing.T) {
	pts := []harness.Point{tinyPoint(71), tinyPoint(72), tinyPoint(73)}
	want := localBaseline(t, pts)
	co := newTestCoordinator(t, fastOpts())
	sock := serveOnSocket(t, co)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < 2; i++ {
		wconn, err := DialRetry(sock, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		go RunWorker(ctx, wconn, WorkerOptions{HeartbeatEvery: 10 * time.Millisecond})
	}

	var progressed atomic.Int32
	cl := &Client{Addr: sock}
	got, err := cl.Submit(context.Background(), harness.Batch{
		Points:   pts,
		Progress: func(done, total int) { progressed.Store(int32(done)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		sameRun(t, pts[i].Label(), got[i].RunResult, want[i].RunResult)
	}
	if progressed.Load() != int32(len(pts)) {
		t.Errorf("progress reached %d, want %d", progressed.Load(), len(pts))
	}
	if s := co.Stats(); s.Completed != uint64(len(pts)) {
		t.Errorf("stats: %+v", s)
	}
}

// scriptedCoordinator accepts one client on a unix socket, completes the
// handshake and hands the connection to serve.
func scriptedCoordinator(t *testing.T, serve func(s *script)) string {
	t.Helper()
	ln, sock := listenTemp(t)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		s := &script{t: t, conn: conn, br: bufio.NewReader(conn)}
		if m, err := ReadMsg(s.br); err != nil || m.Verb != "hello" {
			return
		}
		conn.Write(Msg{Verb: "welcome", Args: []string{harness.CodeID()}}.Encode())
		serve(s)
	}()
	return sock
}

// TestClientRejectsAnswerItNeverLeased: an answer carrying an id the
// client never issued ends the batch with a structured error — the point
// whose lease is outstanding does not wait for ever.
func TestClientRejectsAnswerItNeverLeased(t *testing.T) {
	sock := scriptedCoordinator(t, func(s *script) {
		if m, err := ReadMsg(s.br); err != nil || m.Verb != "lease" {
			return
		}
		s.conn.Write(Msg{Verb: "fail", Args: []string{"999"}, Payload: []byte("not yours")}.Encode())
		ReadMsg(s.br) // hold the connection open until the client hangs up
	})
	_, err := (&Client{Addr: sock, DialTimeout: -1}).Submit(context.Background(),
		harness.Batch{Points: []harness.Point{tinyPoint(74), tinyPoint(75)}})
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != "read" || !strings.Contains(fe.Msg, "unexpected fail [999]") {
		t.Fatalf("err = %v, want a *fleet.Error about the unexpected answer", err)
	}
}

// TestClientFailNamesThePoint: a fail for one lease fails the batch, and
// the error carries that point's label and the coordinator's text.
func TestClientFailNamesThePoint(t *testing.T) {
	pts := []harness.Point{tinyPoint(76), tinyPoint(77), tinyPoint(78)}
	bad := pts[1]
	sock := scriptedCoordinator(t, func(s *script) {
		for {
			m, err := ReadMsg(s.br)
			if err != nil || m.Verb != "lease" {
				return
			}
			if pt, err := harness.DecodePoint(m.Payload); err == nil && pt.EM3D.Seed == bad.EM3D.Seed {
				s.conn.Write(Msg{Verb: "fail", Args: m.Args[:1], Payload: []byte("boom")}.Encode())
			}
		}
	})
	res, err := (&Client{Addr: sock, DialTimeout: -1}).Submit(context.Background(), harness.Batch{Points: pts})
	var fe *Error
	if res != nil || !errors.As(err, &fe) || fe.Op != "submit" || fe.Point != bad.Label() || fe.Msg != "boom" {
		t.Fatalf("res = %v, err = %v, want no results and a *fleet.Error for %s saying boom", res, err, bad.Label())
	}
}

// TestFleetClientHangupLeavesNoTask: a client leases three points and
// hangs up with none answered. Its waits are cancelled; the points run
// to completion on the one worker and the table drains.
func TestFleetClientHangupLeavesNoTask(t *testing.T) {
	co := newTestCoordinator(t, steadyOpts())
	s := connectScript(t, co, "client")
	for i, seed := range []uint64{84, 85, 86} {
		s.send(Msg{Verb: "lease", Args: []string{fu(uint64(i + 1)), "0"}, Payload: tinyPoint(seed).Encode()})
	}
	waitFor(t, "the client's points to be tabled", func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return len(co.tasks) == 3
	})
	s.conn.Close()
	startWorker(t, co, WorkerOptions{})
	waitFor(t, "the abandoned points to finish", func() bool { return co.Stats().Completed == 3 })
	if s := co.Stats(); s.Leases != 3 || s.Failed != 0 {
		t.Errorf("stats = %+v, want three leases, none failed", s)
	}
	tableEmpty(t, co)
}

// TestListenRefusesLiveSocket: a second Listen on a unix path a
// coordinator is serving is an error naming the address (it used to
// unlink the file and strand the first coordinator with its workers); a
// socket file nothing answers on is still cleared.
func TestListenRefusesLiveSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "fleet.sock")
	ln, err := Listen(sock)
	if err != nil {
		t.Fatal(err)
	}
	go func() { // the live coordinator: accept whatever probes it
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	if ln2, err := Listen(sock); err == nil {
		ln2.Close()
		t.Fatal("a second Listen took over a live coordinator's socket")
	} else if !strings.Contains(err.Error(), sock) {
		t.Errorf("error does not name the address: %v", err)
	}
	if conn, err := Dial(sock); err != nil {
		t.Fatalf("the first listener is no longer reachable: %v", err)
	} else {
		conn.Close()
	}
	// A killed run leaves the file behind: keep it across Close.
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	ln3, err := Listen(sock)
	if err != nil {
		t.Fatalf("stale socket file not cleared: %v", err)
	}
	ln3.Close()
}

// TestDialErrors: the dial failure is one *Error, not one wrapped in
// another, and a single attempt is not described by a negative duration.
func TestDialErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nobody.sock")
	for name, tc := range map[string]struct {
		timeout time.Duration
		want    string
	}{
		"single attempt": {-1, "fleet: dial " + missing + ": no coordinator: dial unix"},
		"deadline":       {time.Millisecond, "fleet: dial " + missing + ": no coordinator after 1ms: dial unix"},
	} {
		_, err := (&Client{Addr: missing, DialTimeout: tc.timeout}).Submit(context.Background(), harness.Batch{})
		var fe *Error
		if !errors.As(err, &fe) || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q…", name, err, tc.want)
		}
	}
}

// TestFleetTCPEndToEnd repeats the remote path over TCP loopback.
func TestFleetTCPEndToEnd(t *testing.T) {
	pt := tinyPoint(81)
	co := newTestCoordinator(t, fastOpts())
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go co.Serve(ln)
	addr := ln.Addr().String()
	wconn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go RunWorker(ctx, wconn, WorkerOptions{})
	got, err := (&Client{Addr: addr}).Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}})
	if err != nil {
		t.Fatal(err)
	}
	want := localBaseline(t, []harness.Point{pt})
	sameRun(t, pt.Label(), got[0].RunResult, want[0].RunResult)
}

// TestFleetWorkerLogs smoke-tests the fmt verbs in log lines (a
// mis-paired Logf panics under test via t.Logf's vet pass otherwise
// going unnoticed).
func TestFleetWorkerLogs(t *testing.T) {
	pt := tinyPoint(91)
	co := newTestCoordinator(t, CoordinatorOptions{
		Logf: func(format string, args ...any) { _ = fmt.Sprintf(format, args...) },
	})
	a, b := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.ServeConn(a)
	go RunWorker(ctx, b, WorkerOptions{Logf: func(format string, args ...any) { _ = fmt.Sprintf(format, args...) }})
	if _, err := co.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}}); err != nil {
		t.Fatal(err)
	}
}
