package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The experiments in this package replay the paper's evaluation, which
// itself ran on a parallel simulator (the Wisconsin Wind Tunnel hosted
// on a CM-5). Every simulated machine is a self-contained deterministic
// object — no package-level mutable state anywhere in the simulator —
// so independent (app, system, config) points can run concurrently on
// worker goroutines without changing any result. runPool is the worker
// pool the sweeps share; results are slotted by job index, never by
// completion order, so parallel output is bit-identical to serial.

// job is one unit of work for runPool: typically one simulated machine
// run. The context is cancelled when another job has already failed;
// jobs may check it to stop early, but need not (a running simulation
// is never interrupted mid-flight).
type job[T any] func(ctx context.Context) (T, error)

// PointTimeoutError reports a sweep point that exceeded the configured
// per-point timeout. The abandoned simulation keeps running on its own
// goroutine until it finishes; its result is discarded.
type PointTimeoutError struct {
	// Point names the timed-out sweep point (a Point.Label).
	Point string
	// Timeout is the limit that was exceeded.
	Timeout time.Duration
}

func (e *PointTimeoutError) Error() string {
	return fmt.Sprintf("%s: no result within the %v point timeout (simulation abandoned)", e.Point, e.Timeout)
}

// runPool executes every job on a pool of workers goroutines (<= 0
// uses all cores) and returns the results in job order. On the first
// error, or when parent is cancelled, the pool stops handing out new
// jobs (fail-fast via context cancellation), waits for in-flight jobs,
// and returns the error of the lowest-indexed job that failed; distinct
// errors from other in-flight jobs are aggregated via errors.Join, so a
// slow second failure is never silently dropped.
func runPool[T any](parent context.Context, jobs []job[T], workers int) ([]T, error) {
	n := len(jobs)
	results := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		mu   sync.Mutex
		errs map[int]error
	)
	feed := make(chan int)
	go func() {
		defer close(feed)
		for i := range jobs {
			select {
			case feed <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				// After a failure, drain the feed without running: the
				// feeder's select may still hand out an index that raced
				// with cancellation.
				if ctx.Err() != nil {
					continue
				}
				res, err := jobs[i](ctx)
				if err != nil {
					mu.Lock()
					if errs == nil {
						errs = make(map[int]error)
					}
					errs[i] = err
					mu.Unlock()
					cancel()
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, joinJobErrors(errs)
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// RunWithTimeout runs f, the simulation of pt, under the per-point
// timeout (<= 0 = none). On timeout f's goroutine is abandoned — a
// machine run cannot be interrupted; it finishes and discards its result
// into the buffered channel — and the caller gets a *PointTimeoutError
// naming the point. The local pool bounds a point here around RunPoint,
// a fleet worker around its lease.
func RunWithTimeout[T any](pt Point, timeout time.Duration, f func() (T, error)) (T, error) {
	if timeout <= 0 {
		return f()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := f()
		ch <- outcome{v, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-timer.C:
		var zero T
		return zero, &PointTimeoutError{Point: pt.Label(), Timeout: timeout}
	}
}

// joinJobErrors folds every failed job into one error: the
// lowest-indexed failure leads (stable under fail-fast scheduling),
// and later failures with distinct messages join it rather than being
// dropped. Cancellation fallout — a job that merely observed the
// shared context dying — is omitted when any real failure exists.
func joinJobErrors(errs map[int]error) error {
	idxs := make([]int, 0, len(errs))
	for i := range errs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	real := idxs[:0:0]
	for _, i := range idxs {
		if !errors.Is(errs[i], context.Canceled) {
			real = append(real, i)
		}
	}
	if len(real) > 0 {
		idxs = real
	}
	var joined []error
	seen := make(map[string]bool)
	for _, i := range idxs {
		msg := errs[i].Error()
		if seen[msg] {
			continue
		}
		seen[msg] = true
		joined = append(joined, errs[i])
	}
	if len(joined) == 1 {
		return joined[0]
	}
	return errors.Join(joined...)
}
