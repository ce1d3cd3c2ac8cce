package fleet

import (
	"bufio"
	"context"
	"strconv"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/wiretext"
)

// Client is the harness.Executor that ships a batch to a remote
// coordinator (-fleet addr). Every returned entry is re-verified
// locally against the point's canonical key before it becomes a result
// — the client does not have to trust the coordinator any more than
// the coordinator trusts its workers.
type Client struct {
	Addr string
	// DialTimeout bounds how long Submit retries the initial dial —
	// sweep binaries routinely start alongside the coordinator they
	// target. 0 means the 10-second default; negative means a single
	// dial attempt.
	DialTimeout time.Duration
	// Logf, when non-nil, receives client lifecycle events.
	Logf func(format string, args ...any)
}

var _ harness.Executor = (*Client)(nil)

// Submit implements harness.Executor.
func (cl *Client) Submit(ctx context.Context, batch harness.Batch) ([]harness.PointResult, error) {
	dialTmo := cl.DialTimeout
	if dialTmo == 0 {
		dialTmo = 10 * time.Second
	}
	conn, err := DialRetry(cl.Addr, dialTmo)
	if err != nil {
		return nil, errf("dial", cl.Addr, "", "%v", err)
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
	send := func(m Msg) error {
		if _, err := conn.Write(m.Encode()); err != nil {
			return errf("write", cl.Addr, "", "%v", err)
		}
		return nil
	}
	br := bufio.NewReader(conn)
	code := harness.CodeID()
	if err := hello(send, br, "client", code, cl.Addr); err != nil {
		return nil, err
	}
	n := len(batch.Points)
	if err := send(Msg{Verb: "submit", Args: []string{strconv.Itoa(n), fu(timeoutMS(batch.PointTimeout))}}); err != nil {
		return nil, err
	}
	for i, pt := range batch.Points {
		if err := send(Msg{Verb: "point", Args: []string{strconv.Itoa(i)}, Payload: pt.Encode()}); err != nil {
			return nil, err
		}
	}
	if err := send(Msg{Verb: "end"}); err != nil {
		return nil, err
	}
	if cl.Logf != nil {
		cl.Logf("fleet: submitted %d points to %s", n, cl.Addr)
	}
	results := make([]harness.PointResult, n)
	got := make([]bool, n)
	for {
		m, err := ReadMsg(br)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, errf("read", cl.Addr, "", "connection lost mid-batch: %v", err)
		}
		switch m.Verb {
		case "prog":
			if batch.Progress != nil {
				done, err1 := wiretext.CanonUint(m.Args[0], uint64(n))
				total, err2 := wiretext.CanonUint(m.Args[1], uint64(n))
				if err1 == nil && err2 == nil {
					batch.Progress(int(done), int(total))
				}
			}
		case "done":
			i, err := wiretext.CanonUint(m.Args[0], uint64(n)-1)
			if err != nil {
				return nil, errf("read", cl.Addr, "", "bad result index %q", m.Args[0])
			}
			pt := batch.Points[i]
			entry, err := resultcache.Decode(m.Payload)
			if err != nil {
				return nil, errf("verify", cl.Addr, pt.Label(), "corrupt result entry: %v", err)
			}
			key, err := harness.PointKey(code, pt)
			if err != nil {
				return nil, err
			}
			if entry.Key != key || entry.Code != code {
				return nil, errf("verify", cl.Addr, pt.Label(),
					"result does not verify: key %s code %.12s (want key %s code %.12s)",
					entry.Key, entry.Code, key, code)
			}
			results[i] = pointResult(entry)
			got[i] = true
		case "perr":
			return nil, errf("submit", cl.Addr, "", "%s", m.Payload)
		case "complete":
			for i := range got {
				if !got[i] {
					return nil, errf("read", cl.Addr, batch.Points[i].Label(), "batch completed without this point's result")
				}
			}
			send(Msg{Verb: "bye"}) // best effort
			return results, nil
		default:
			return nil, errf("read", cl.Addr, "", "unexpected %s from coordinator", m.Verb)
		}
	}
}
