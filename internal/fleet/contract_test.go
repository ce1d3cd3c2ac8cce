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
// three schedule through harness.RunPoints; the per-point half differs).
func TestExecutorContract(t *testing.T) {
	backends := []struct {
		name string
		new  func(t *testing.T) harness.Executor
	}{
		{"local", func(t *testing.T) harness.Executor {
			return harness.LocalExecutor{Workers: 2, Cache: dirCache(t, t.TempDir())}
		}},
		{"coordinator", func(t *testing.T) harness.Executor {
			co := newTestCoordinator(t, fastOpts())
			startWorkers(t, co, 2)
			return co
		}},
		{"client", func(t *testing.T) harness.Executor {
			co := newTestCoordinator(t, fastOpts())
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
		{"fail-fast", func(t *testing.T, exec harness.Executor) {
			invalid, unbuildable := tinyPoint(112), tinyPoint(115)
			invalid.Cfg.BlockSize = 48
			unbuildable.Cfg.MemPagesPerNode = 1
			for bad, want := range map[*harness.Point]string{
				&invalid:     "harness: point " + invalid.Label() + ": block size 48 is not a power of two in [8, 4096]",
				&unbuildable: "harness: " + unbuildable.Label() + ": setup: stache: home 0 out of frames: mem: out of physical frames",
			} {
				pts := []harness.Point{tinyPoint(111), *bad, tinyPoint(113), tinyPoint(114)}
				got, err := exec.Submit(context.Background(), harness.Batch{Points: pts})
				if err == nil || got != nil {
					t.Fatalf("got %d results, err %v; want no results and an error", len(got), err)
				}
				checkPointError(t, exec, err, *bad, want)
				if strings.Contains(err.Error(), context.Canceled.Error()) {
					t.Errorf("sibling cancellations leaked into the error: %v", err)
				}
			}
		}},
		{"progress", func(t *testing.T, exec harness.Executor) {
			pts := []harness.Point{tinyPoint(121), tinyPoint(122), tinyPoint(123)}
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
			checkPointError(t, exec, err, pt, pt.Label()+": no result within the 1ms point timeout (simulation abandoned)")
		}},
	}
	for _, b := range backends {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, b.new(t))
			})
		}
	}
}

// checkPointError holds a failed batch's error to its point's own text:
// exactly that text from the in-process pool, and that text after the
// fleet's "fleet: run …" framing from the other two. The scheduler adds
// no name of its own: an error that opens "harness: <label>: " names the
// point nowhere else.
func checkPointError(t *testing.T, exec harness.Executor, err error, pt harness.Point, want string) {
	t.Helper()
	msg := err.Error()
	if _, local := exec.(harness.LocalExecutor); local && msg != want || !strings.HasSuffix(msg, want) {
		t.Errorf("error = %q, want %q", msg, want)
	}
	if strings.HasPrefix(msg, "harness: "+pt.Label()+": ") && strings.Count(msg, pt.Label()) > 1 {
		t.Errorf("error names the point twice: %q", msg)
	}
}
