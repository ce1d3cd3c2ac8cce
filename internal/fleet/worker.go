package fleet

import (
	"bufio"
	"context"
	"io"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/resultcache"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Cache is the worker's result cache (zero value = simulate every
	// lease). Workers sharing one cache directory share one store, and a
	// local pool pointed at it is served by whatever the fleet simulated.
	Cache harness.CacheParams
	// HeartbeatEvery is the heartbeat period while a lease runs (default
	// 1s; keep it well under the coordinator's lease TTL).
	HeartbeatEvery time.Duration
	// Logf, when non-nil, receives worker lifecycle events.
	Logf func(format string, args ...any)
}

// RunWorker speaks the worker side of the protocol on conn: handshake,
// then one lease at a time — run the point, heartbeat while it runs,
// answer with its canonical cache entry or its failure — until the
// coordinator says bye or the connection drops. A worker that wants N
// points in flight runs N connections. Returns nil on an orderly
// shutdown.
func RunWorker(ctx context.Context, conn io.ReadWriteCloser, opts WorkerOptions) error {
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	send := func(m Msg) error {
		_, err := conn.Write(m.Encode())
		return err
	}
	br := bufio.NewReader(conn)
	code := harness.CodeID()
	if err := hello(send, br, "worker", code, ""); err != nil {
		return err
	}
	logf("fleet: worker ready (code %.12s)", code)

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
		if m.Verb == "bye" {
			return nil
		}
		if m.Verb != "lease" {
			return errf("read", "", "", "unexpected %s from coordinator", m.Verb)
		}
		tmoMS, err := leaseTimeout(m)
		if err != nil {
			return err
		}
		send(answerTo(m, func(pt harness.Point) (*resultcache.Entry, error) {
			logf("fleet: running lease %s: %s", m.Args[0], pt.Label())
			// The heartbeat ticker is the only other writer, and it is
			// joined before the answer is written.
			hbStop, hbDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(hbDone)
				t := time.NewTicker(opts.HeartbeatEvery)
				defer t.Stop()
				for {
					select {
					case <-hbStop:
						return
					case <-t.C:
						send(Msg{Verb: "heartbeat", Args: m.Args[:1]})
					}
				}
			}()
			defer func() {
				close(hbStop)
				<-hbDone
			}()
			return harness.RunWithTimeout(pt, time.Duration(tmoMS)*time.Millisecond, func() (*resultcache.Entry, error) {
				_, entry, err := harness.RunPointEntry(opts.Cache, pt)
				return entry, err
			})
		}))
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
