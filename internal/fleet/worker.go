package fleet

import (
	"bufio"
	"context"
	"io"
	"math"
	"sync"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/wiretext"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Cache is the worker's own result cache (zero value = simulate
	// every lease). Pointing it at the same -cache-dir as the
	// coordinator composes: either side's prior runs serve the other.
	Cache harness.CacheParams
	// Slots is how many leases the worker runs concurrently (default 1).
	Slots int
	// HeartbeatEvery is the per-lease heartbeat period (default 1s; keep
	// it well under the coordinator's lease TTL).
	HeartbeatEvery time.Duration
	// OnLease, when non-nil, is called with the 1-based lease ordinal
	// before the point runs — the fault-injection hook (a test or
	// -die-after-leases kills the worker from here).
	OnLease func(n int)
	// Logf, when non-nil, receives worker lifecycle events.
	Logf func(format string, args ...any)
}

// RunWorker speaks the worker side of the protocol on conn: handshake,
// then run leased points and stream back results (as canonical cache
// entries) or failures until the coordinator says bye or the connection
// drops. Returns nil on an orderly shutdown.
func RunWorker(ctx context.Context, conn io.ReadWriteCloser, opts WorkerOptions) error {
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	var wmu sync.Mutex
	send := func(m Msg) error {
		wmu.Lock()
		defer wmu.Unlock()
		_, err := conn.Write(m.Encode())
		return err
	}
	br := bufio.NewReader(conn)
	code := harness.CodeID()
	if err := hello(send, br, "worker", code, ""); err != nil {
		return err
	}
	if err := send(Msg{Verb: "ready", Args: []string{fu(uint64(opts.Slots))}}); err != nil {
		return errf("handshake", "", "", "writing ready: %v", err)
	}
	logf("fleet: worker ready (%d slots, code %.12s)", opts.Slots, code)

	var wg sync.WaitGroup
	defer wg.Wait()
	leaseN := 0
	for {
		m, err := ReadMsg(br)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err == io.EOF {
				return nil
			}
			return errf("read", "", "", "%v", err)
		}
		switch m.Verb {
		case "lease":
			id, err := wiretext.CanonUint(m.Args[0], math.MaxUint64)
			if err != nil {
				return errf("lease", "", "", "bad lease id %q", m.Args[0])
			}
			tmoMS, err := wiretext.CanonUint(m.Args[1], math.MaxUint64)
			if err != nil {
				return errf("lease", "", "", "bad timeout %q", m.Args[1])
			}
			leaseN++
			if opts.OnLease != nil {
				opts.OnLease(leaseN)
			}
			pt, perr := harness.DecodePoint(m.Payload)
			if perr != nil {
				send(Msg{Verb: "fail", Args: []string{fu(id)}, Payload: []byte(perr.Error())})
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				logf("fleet: running lease %d: %s", id, pt.Label())
				hbStop := make(chan struct{})
				var hbWG sync.WaitGroup
				hbWG.Add(1)
				go func() {
					defer hbWG.Done()
					t := time.NewTicker(opts.HeartbeatEvery)
					defer t.Stop()
					for {
						select {
						case <-hbStop:
							return
						case <-t.C:
							send(Msg{Verb: "heartbeat", Args: []string{fu(id)}})
						}
					}
				}()
				entry, err := runLeased(opts.Cache, pt, time.Duration(tmoMS)*time.Millisecond)
				close(hbStop)
				hbWG.Wait()
				if err != nil {
					send(Msg{Verb: "fail", Args: []string{fu(id)}, Payload: []byte(err.Error())})
					return
				}
				send(Msg{Verb: "result", Args: []string{fu(id)}, Payload: entry.Encode()})
			}()
		case "bye":
			return nil
		default:
			return errf("read", "", "", "unexpected %s from coordinator", m.Verb)
		}
	}
}

// hello is the connecting peer's half of the handshake: announce the
// protocol version, role and code digest, and require a welcome. peer
// names the coordinator in errors.
func hello(send func(Msg) error, br *bufio.Reader, role, code, peer string) error {
	if err := send(Msg{Verb: "hello", Args: []string{Proto, role, code}}); err != nil {
		return errf("handshake", peer, "", "writing hello: %v", err)
	}
	m, err := ReadMsg(br)
	if err != nil {
		return errf("handshake", peer, "", "reading welcome: %v", err)
	}
	switch m.Verb {
	case "welcome":
		return nil
	case "reject":
		return errf("handshake", peer, "", "rejected: %s", m.Payload)
	}
	return errf("handshake", peer, "", "expected welcome, got %s", m.Verb)
}

// runLeased runs one leased point under the coordinator's per-point
// timeout and returns its entry.
func runLeased(cp harness.CacheParams, pt harness.Point, tmo time.Duration) (*resultcache.Entry, error) {
	return harness.RunWithTimeout(pt, tmo, func() (*resultcache.Entry, error) {
		_, entry, err := harness.RunPointEntry(cp, pt)
		return entry, err
	})
}
