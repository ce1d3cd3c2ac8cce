package harness

import (
	"context"
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
	return RunChains(ctx, batch, ex.Workers, func(_ context.Context, pt Point) (PointResult, error) {
		return RunWithTimeout(pt, batch.PointTimeout, func() (PointResult, error) {
			return RunPoint(ex.Cache, pt)
		})
	})
}

// RunChains is the scheduler behind every Executor: it owns the three
// invariants of the contract so a backend supplies only how one point
// runs. Points sharing a Group form one chain, in first-appearance
// order, and run sequentially within it; ungrouped points are singleton
// chains. Up to workers chains (<= 0 = all cores) run at once on the
// RunAll pool, which brings fail-fast cancellation of the context run
// sees and the joined error naming each failed chain. Results are
// slotted by point index and batch.Progress calls are serialized.
func RunChains[R any](ctx context.Context, batch Batch, workers int,
	run func(ctx context.Context, pt Point) (R, error)) ([]R, error) {
	pts := batch.Points
	results := make([]R, len(pts))
	var chains [][]int
	groupAt := make(map[string]int)
	for i, pt := range pts {
		ci, ok := groupAt[pt.Group]
		if pt.Group == "" || !ok {
			ci = len(chains)
			chains = append(chains, nil)
			if pt.Group != "" {
				groupAt[pt.Group] = ci
			}
		}
		chains[ci] = append(chains[ci], i)
	}

	var mu sync.Mutex
	done := 0
	jobs := make([]Job[struct{}], len(chains))
	for ci, idxs := range chains {
		jobs[ci] = func(jctx context.Context) (struct{}, error) {
			for _, i := range idxs {
				if err := jctx.Err(); err != nil {
					return struct{}{}, err
				}
				r, err := run(jctx, pts[i])
				if err != nil {
					return struct{}{}, err
				}
				results[i] = r
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
	_, err := RunAllOpts(ctx, jobs, RunOptions{
		Workers: workers,
		Label: func(ci int) string {
			first := pts[chains[ci][0]]
			if first.Group != "" {
				return first.Group
			}
			return first.Label()
		},
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SubmitPoints runs a sweep's points on its configured executor,
// defaulting to the in-process pool.
func SubmitPoints(sp SimParams, points []Point) ([]PointResult, error) {
	exec := sp.Exec
	if exec == nil {
		exec = LocalExecutor{Workers: sp.Workers, Cache: sp.Cache}
	}
	return exec.Submit(context.Background(), Batch{
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
// simulate directly, everything else memoizes through cachedRun and
// publishes any witness aliases the point declares. It also returns the
// point's cache entry — a fleet worker sends the entry over the wire, so
// the entry exists even when the point ran cacheless.
func RunPointEntry(cp CacheParams, pt Point) (PointResult, *resultcache.Entry, error) {
	if err := pt.Validate(); err != nil {
		return PointResult{}, nil, err
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
