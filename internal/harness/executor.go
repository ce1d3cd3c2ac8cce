package harness

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/tempest-sim/tempest/internal/resultcache"
)

// Batch is one sweep submission: an ordered list of points plus the
// execution policy that applies to each of them. Results come back in
// point order regardless of backend or completion order — the same
// determinism contract RunAll has always had.
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
	// Origin is the result's cache provenance: "" for a fresh (or
	// uncached) simulation, a tag like "witness:4K" for an alias served
	// from the zero-eviction dedup machinery.
	Origin string
	// Obs carries the full observation for Observed points, nil
	// otherwise.
	Obs *DiffObservation
}

// Executor runs a batch of sweep points. Implementations must preserve
// three invariants the sweeps rely on: results are returned slotted by
// point index; points sharing a Group run sequentially in submission
// order (so earlier points' cache entries and witness aliases can serve
// later ones); and the first point failure fails the whole batch rather
// than returning partial results. The in-process pool (LocalExecutor)
// and the fleet coordinator/client (internal/fleet) are the two
// backends; both produce bit-identical results for the same batch.
type Executor interface {
	Submit(ctx context.Context, batch Batch) ([]PointResult, error)
}

// LocalExecutor runs points on an in-process worker pool — the
// historical RunAll behaviour behind the Executor interface. Each group
// of points is one pool job; ungrouped points are singleton jobs.
type LocalExecutor struct {
	// Workers sizes the pool; <= 0 uses all cores.
	Workers int
	// Cache threads the result cache through every point (zero value =
	// no caching).
	Cache CacheParams
}

// Submit implements Executor.
func (ex LocalExecutor) Submit(ctx context.Context, batch Batch) ([]PointResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pts := batch.Points
	results := make([]PointResult, len(pts))

	// Group points into jobs: points sharing a Group form one job in
	// first-appearance order and run sequentially within it.
	type jobSpec struct {
		idxs  []int
		label string
	}
	var specs []jobSpec
	groupAt := make(map[string]int)
	for i, pt := range pts {
		if pt.Group == "" {
			specs = append(specs, jobSpec{idxs: []int{i}, label: pt.Label()})
			continue
		}
		gi, ok := groupAt[pt.Group]
		if !ok {
			gi = len(specs)
			groupAt[pt.Group] = gi
			specs = append(specs, jobSpec{label: pt.Group})
		}
		specs[gi].idxs = append(specs[gi].idxs, i)
	}

	var mu sync.Mutex
	done := 0
	jobs := make([]Job[struct{}], len(specs))
	for si := range specs {
		spec := specs[si]
		jobs[si] = func(jctx context.Context) (struct{}, error) {
			for _, i := range spec.idxs {
				if err := jctx.Err(); err != nil {
					return struct{}{}, err
				}
				pt := pts[i]
				pr, err := runJob(jctx, func(context.Context) (PointResult, error) {
					return RunPoint(ex.Cache, pt)
				}, batch.PointTimeout)
				if err != nil {
					var pte *PointTimeoutError
					if errors.As(err, &pte) && pte.Point == "" {
						pte.Point = pt.Label()
					}
					return struct{}{}, err
				}
				results[i] = pr
				if batch.Progress != nil {
					mu.Lock()
					done++
					batch.Progress(done, len(pts))
					mu.Unlock()
				}
			}
			return struct{}{}, nil
		}
	}
	_, err := RunAllOpts(jobs, RunOptions{
		Workers: ex.Workers,
		Label:   func(i int) string { return specs[i].label },
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// submitPoints routes a sweep's points through its configured executor,
// defaulting to the in-process pool.
func submitPoints(exec Executor, cp CacheParams, workers int, timeout time.Duration,
	points []Point, progress func(done, total int)) ([]PointResult, error) {
	if exec == nil {
		exec = LocalExecutor{Workers: workers, Cache: cp}
	}
	return exec.Submit(context.Background(), Batch{
		Points:       points,
		Progress:     progress,
		PointTimeout: timeout,
	})
}

// RunPoint executes one point: Observed points go through the
// differential harness; everything else goes through the cache funnel
// (RunPointEntry) and drops the entry.
func RunPoint(cp CacheParams, pt Point) (PointResult, error) {
	if pt.Observed {
		if err := pt.Validate(); err != nil {
			return PointResult{}, err
		}
		obs, err := pt.runObserved()
		if err != nil {
			return PointResult{}, err
		}
		return PointResult{
			RunResult: RunResult{System: obs.System, App: obs.App, Res: obs.Res},
			Obs:       &obs,
		}, nil
	}
	pr, _, err := RunPointEntry(cp, pt)
	return pr, err
}

// RunPointEntry is the cache funnel: NoCache (and cache-disabled) points
// simulate directly, everything else memoizes through cachedRun and
// publishes any witness aliases the point declares. It also returns the
// point's cache entry — a fleet worker sends the entry over the wire, so
// the entry exists even when the point ran cacheless. Observed points
// have no entry form and are rejected.
func RunPointEntry(cp CacheParams, pt Point) (PointResult, *resultcache.Entry, error) {
	if err := pt.Validate(); err != nil {
		return PointResult{}, nil, err
	}
	if pt.Observed {
		return PointResult{}, nil, errors.New("harness: observed points have no cacheable entry form (run them locally)")
	}
	name, appFields, extra, err := pt.keyParts()
	if err != nil {
		return PointResult{}, nil, err
	}
	if pt.NoCache || !cp.enabled() {
		rr, err := pt.Simulate()
		if err != nil {
			return PointResult{}, nil, err
		}
		code := CodeID()
		entry := entryFromResult(runKey(code, pt.Cfg, pt.System, name, appFields, extra),
			code, pt.System, name, rr.Res)
		return PointResult{RunResult: rr}, entry, nil
	}
	rr, entry, err := cachedRun(cp, pt.Cfg, pt.System, name, appFields, extra, pt.Simulate)
	if err != nil {
		return PointResult{}, nil, err
	}
	StoreWitnessAliases(cp.Cache, pt, entry)
	return PointResult{RunResult: rr, Origin: entry.Origin}, entry, nil
}

// StoreWitnessAliases publishes the zero-eviction witness aliases a
// point declares: when its entry is a clean fresh run (not itself an
// alias) that evicted no cache line, the identical result is filed
// under the derived keys of every declared larger cache size. Both the
// local funnel and the fleet coordinator call this after accepting a
// fresh result; existing entries are never overwritten.
func StoreWitnessAliases(cache *resultcache.Cache, pt Point, entry *resultcache.Entry) {
	if cache == nil || entry == nil || len(pt.WitnessKB) == 0 {
		return
	}
	if entry.Origin != "" || entry.Counters["cpu.evictions"] != 0 {
		return
	}
	name, appFields, extra, err := pt.keyParts()
	if err != nil {
		return
	}
	for _, kb := range pt.WitnessKB {
		cfg2 := pt.Cfg
		cfg2.CacheSize = kb << 10
		k2 := runKey(entry.Code, cfg2, pt.System, name, appFields, extra)
		if !cache.Contains(k2) {
			cache.Put(entry.WithKey(k2, fig3Witness(pt.Cfg.CacheSize>>10)))
		}
	}
}
