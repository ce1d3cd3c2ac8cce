package harness

import (
	"context"
	"sync"
	"time"

	"github.com/tempest-sim/tempest/internal/resultcache"
)

// Batch is one sweep submission: an ordered list of points plus the
// execution policy that applies to each of them. Results come back in
// point order regardless of completion order.
type Batch struct {
	Points []Point
	// Progress, when non-nil, is called after each point completes with
	// the number done so far and the total. Calls are serialized but
	// arrive in completion order.
	Progress func(done, total int)
	// PointTimeout, when > 0, bounds each point's wall-clock run; a
	// point that exceeds it fails the batch with a *PointTimeoutError
	// naming the point.
	PointTimeout time.Duration
}

// PointResult is one completed point.
type PointResult struct {
	RunResult
	// Inert: kept because benchmark/ names the field; the `benchmark`-archetype PR deletes it.
	Origin string
}

// LocalExecutor runs a batch's points on the in-process worker pool,
// one pool job per point. It keeps the two invariants the sweeps rely
// on: results are returned slotted by point index, and the first point
// failure fails the whole batch rather than returning partial results.
type LocalExecutor struct {
	// Workers sizes the pool; <= 0 uses all cores.
	Workers int
	// Cache threads the result cache through every point (zero value =
	// no caching).
	Cache CacheParams
}

// Submit runs the batch and returns its results in point order.
func (ex LocalExecutor) Submit(ctx context.Context, batch Batch) ([]PointResult, error) {
	return RunPoints(ctx, batch, ex.Workers, func(_ context.Context, pt Point) (PointResult, error) {
		return RunWithTimeout(pt, batch.PointTimeout, func() (PointResult, error) {
			return RunPoint(ex.Cache, pt)
		})
	})
}

// RunPoints is the scheduler behind LocalExecutor and internal/fleet's
// Submit methods: it owns the two invariants so a caller supplies only
// how one point runs. Each point is one job on the worker pool (up to
// workers at once, <= 0 = all cores), which brings fail-fast
// cancellation of the context run sees and the joined error of every
// distinct failure. It adds no label of its own: every point error
// already names its point. Results are slotted by point index and
// batch.Progress calls are serialized.
func RunPoints[R any](ctx context.Context, batch Batch, workers int,
	run func(ctx context.Context, pt Point) (R, error)) ([]R, error) {
	var mu sync.Mutex
	done := 0
	jobs := make([]job[R], len(batch.Points))
	for i := range jobs {
		jobs[i] = func(jctx context.Context) (R, error) {
			r, err := run(jctx, batch.Points[i])
			if err == nil && batch.Progress != nil {
				mu.Lock()
				done++
				batch.Progress(done, len(jobs))
				mu.Unlock()
			}
			return r, err
		}
	}
	return runPool(ctx, jobs, workers)
}

// SubmitPoints runs a sweep's points on the in-process pool.
func SubmitPoints(sp SimParams, points []Point) ([]PointResult, error) {
	return LocalExecutor{Workers: sp.Workers, Cache: sp.Cache}.Submit(context.Background(), Batch{
		Points:       points,
		Progress:     sp.Progress,
		PointTimeout: sp.PointTimeout,
	})
}

// RunPoint executes one point through the cache funnel (RunPointEntry)
// and drops the entry.
func RunPoint(cp CacheParams, pt Point) (PointResult, error) {
	pr, _, err := RunPointEntry(cp, pt)
	return pr, err
}

// RunPointEntry is the cache funnel: NoCache (and cache-disabled) points
// simulate directly, everything else memoizes through cachedRun. It also
// returns the point's cache entry — a fleet worker sends the entry over
// the wire, so the entry exists even when the point ran cacheless.
func RunPointEntry(cp CacheParams, pt Point) (PointResult, *resultcache.Entry, error) {
	if !pt.NoCache && cp.enabled() {
		rr, entry, err := cachedRun(cp, pt)
		return PointResult{RunResult: rr}, entry, err
	}
	code := CodeID()
	key, err := PointKey(code, pt)
	if err != nil {
		return PointResult{}, nil, err
	}
	rr, err := pt.Simulate()
	if err != nil {
		return PointResult{}, nil, err
	}
	return PointResult{RunResult: rr}, entryFromResult(key, code, pt, rr.Res), nil
}
