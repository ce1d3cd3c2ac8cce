package fleet

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
)

// TestExecutorContract runs one table of harness.Executor's promises
// against all three backends — the in-process pool, a coordinator with
// two workers, and a client leasing to such a coordinator over a unix
// socket — so none can drift from the contract the sweeps rely on (all
// three schedule through harness.RunChains; the per-point half differs).
func TestExecutorContract(t *testing.T) {
	backends := []struct {
		name string
		new  func(t *testing.T, cp harness.CacheParams) harness.Executor
	}{
		{"local", func(t *testing.T, cp harness.CacheParams) harness.Executor {
			return harness.LocalExecutor{Workers: 2, Cache: cp}
		}},
		{"coordinator", func(t *testing.T, cp harness.CacheParams) harness.Executor {
			co := newTestCoordinator(t, fastOpts(cp))
			startWorkers(t, co, 2)
			return co
		}},
		{"client", func(t *testing.T, cp harness.CacheParams) harness.Executor {
			co := newTestCoordinator(t, fastOpts(cp))
			startWorkers(t, co, 2)
			return &Client{Addr: serveOnSocket(t, co), DialTimeout: -1}
		}},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, exec harness.Executor)
	}{
		{"index-slots", func(t *testing.T, exec harness.Executor) {
			// Distinct points of very different lengths, so completion
			// order is not submission order.
			pts := []harness.Point{tinyPoint(101), tinyPoint(102), tinyPoint(103), tinyPoint(104)}
			long := em3d.Tiny()
			long.Iters *= 8
			pts[0].EM3D = &long
			got, err := exec.Submit(context.Background(), harness.Batch{Points: pts})
			if err != nil {
				t.Fatal(err)
			}
			for i, pt := range pts {
				want, err := pt.Simulate()
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, pt.Label(), got[i].RunResult, want)
			}
		}},
		{"group-order", func(t *testing.T, exec harness.Executor) {
			// A Figure 3 chain: the 64K point is served by the witness
			// alias of the eviction-free 16K run only if that run finished
			// (and published its aliases) before the 64K point started.
			pts := harness.Fig3Points(harness.ScaleReduced, []string{"appbt"},
				[]harness.Fig3Config{{Set: harness.SetSmall, CacheKB: 16}, {Set: harness.SetSmall, CacheKB: 64}},
				harness.SimParams{}, false)
			got, err := exec.Submit(context.Background(), harness.Batch{Points: pts})
			if err != nil {
				t.Fatal(err)
			}
			for i, pt := range pts {
				want := ""
				if pt.Cfg.CacheSize == 64<<10 {
					want = "witness:16K"
				}
				if got[i].Origin != want {
					t.Errorf("%s: origin %q, want %q", pt.Label(), got[i].Origin, want)
				}
			}
		}},
		{"fail-fast", func(t *testing.T, exec harness.Executor) {
			bad := tinyPoint(112)
			bad.Cfg.BlockSize = 48
			pts := []harness.Point{tinyPoint(111), bad, tinyPoint(113), tinyPoint(114)}
			got, err := exec.Submit(context.Background(), harness.Batch{Points: pts})
			if err == nil || got != nil {
				t.Fatalf("got %d results, err %v; want no results and an error", len(got), err)
			}
			if !strings.Contains(err.Error(), "block size 48 is not a power of two") {
				t.Errorf("error does not carry the failure: %v", err)
			}
			if strings.Contains(err.Error(), context.Canceled.Error()) {
				t.Errorf("sibling cancellations leaked into the error: %v", err)
			}
		}},
		{"progress", func(t *testing.T, exec harness.Executor) {
			pts := []harness.Point{tinyPoint(121), tinyPoint(122), tinyPoint(123)}
			pts[1].Group, pts[2].Group = "g", "g"
			var mu sync.Mutex
			var calls []int
			_, err := exec.Submit(context.Background(), harness.Batch{Points: pts, Progress: func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if total != len(pts) {
					t.Errorf("total = %d, want %d", total, len(pts))
				}
				calls = append(calls, done)
			}})
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range calls {
				if d != i+1 {
					t.Fatalf("progress sequence %v, want 1..%d", calls, len(pts))
				}
			}
			if len(calls) != len(pts) {
				t.Errorf("progress calls = %d, want %d", len(calls), len(pts))
			}
		}},
		{"timeout", func(t *testing.T, exec harness.Executor) {
			ecfg := em3d.Tiny()
			ecfg.Iters = 100000 // long enough to trip a 1ms budget reliably
			cfg := machine.DefaultConfig()
			cfg.Nodes = 4
			pt := harness.Point{Cfg: cfg, System: harness.SysStache, EM3D: &ecfg, NoCache: true}
			_, err := exec.Submit(context.Background(), harness.Batch{
				Points:       []harness.Point{pt},
				PointTimeout: time.Millisecond,
			})
			if err == nil {
				t.Fatal("timeout did not fire")
			}
			if !strings.Contains(err.Error(), pt.Label()+": no result within the 1ms point timeout") {
				t.Errorf("error should name the point and the timeout: %v", err)
			}
		}},
	}
	for _, b := range backends {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, b.new(t, memCache(t)))
			})
		}
	}
}
