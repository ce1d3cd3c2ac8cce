package fleet

import (
	"bufio"
	"context"
	"sync"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
)

// Client leases a batch's points to a remote coordinator. Every
// returned entry is re-verified locally against the point's canonical
// key before it becomes a result — the client does not have to trust
// the coordinator any more than the coordinator trusts its workers.
type Client struct {
	Addr string
	// DialTimeout bounds how long Submit retries the initial dial — a
	// client may start alongside the coordinator it targets. 0 means the 10-second default; negative means a single
	// dial attempt.
	DialTimeout time.Duration
}

// Submit runs the batch on the coordinator at Addr. The client is to
// the coordinator what the coordinator is to a worker, minus the
// one-at-a-time rule: it schedules the batch's points itself
// (harness.RunPoints, so progress and fail-fast are the local pool's),
// and a point runs by sending its lease and waiting for the answer that
// carries its id.
func (cl *Client) Submit(ctx context.Context, batch harness.Batch) ([]harness.PointResult, error) {
	dialTmo := cl.DialTimeout
	if dialTmo == 0 {
		dialTmo = 10 * time.Second
	}
	conn, err := DialRetry(cl.Addr, dialTmo)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	var wmu sync.Mutex
	send := func(m Msg) error {
		wmu.Lock()
		defer wmu.Unlock()
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

	// One reader hands each answer to the point waiting on its id. An
	// answer nobody waits for, like a lost connection, ends the batch.
	var (
		mu      sync.Mutex
		nextID  uint64
		waiting = make(map[string]chan Msg) // by lease id token
		lost    error                       // why the reader stopped; written before dead closes
	)
	dead := make(chan struct{})
	defer func() { // join the reader: it ends with the connection
		conn.Close()
		<-dead
	}()
	go func() {
		defer close(dead)
		for {
			m, err := ReadMsg(br)
			if err != nil {
				lost = errf("read", cl.Addr, "", "connection lost mid-batch: %v", err)
				return
			}
			var ch chan Msg
			if m.Verb == "result" || m.Verb == "fail" {
				mu.Lock()
				ch = waiting[m.Args[0]]
				delete(waiting, m.Args[0])
				mu.Unlock()
			}
			if ch == nil {
				lost = errf("read", cl.Addr, "", "unexpected %s %v from coordinator", m.Verb, m.Args)
				return
			}
			ch <- m
		}
	}()
	tmo := fu(timeoutMS(batch.PointTimeout))
	results, err := harness.RunPoints(ctx, batch, len(batch.Points),
		func(ctx context.Context, pt harness.Point) (harness.PointResult, error) {
			key, err := harness.PointKey(code, pt) // validates the point
			if err != nil {
				return harness.PointResult{}, err
			}
			ch := make(chan Msg, 1)
			mu.Lock()
			nextID++
			id := fu(nextID)
			waiting[id] = ch
			mu.Unlock()
			if err := send(Msg{Verb: "lease", Args: []string{id, tmo}, Payload: pt.Encode()}); err != nil {
				return harness.PointResult{}, err
			}
			select {
			case <-ctx.Done():
				return harness.PointResult{}, ctx.Err()
			case <-dead:
				return harness.PointResult{}, lost
			case m := <-ch:
				if m.Verb == "fail" {
					return harness.PointResult{}, errf("submit", cl.Addr, pt.Label(), "%s", m.Payload)
				}
				entry, verr := verified(m.Payload, key, code, cl.Addr, pt.Label())
				if verr != nil {
					return harness.PointResult{}, verr
				}
				return pointResult(entry), nil
			}
		})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	select {
	case <-dead: // a failure of the link, not of the point that noticed it
		return nil, lost
	default:
	}
	if err != nil {
		return nil, err
	}
	send(Msg{Verb: "bye"}) // best effort
	return results, nil
}
