package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/apps/appbt"
	"github.com/tempest-sim/tempest/internal/apps/barnes"
	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/mp3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
)

// runPhaseAllocs sets up one point with the named application at iters
// iterations and returns the heap allocations made inside Machine.Run
// alone: machine, protocol and application set-up are outside the count.
func runPhaseAllocs(t *testing.T, system System, bench string, cacheBytes, iters int) uint64 {
	t.Helper()
	pt := Point{Cfg: MachineConfig(ScaleReduced, cacheBytes), System: system, Bench: bench}
	in, err := pt.install()
	if err != nil {
		t.Fatal(err)
	}
	var app apps.App
	switch bench {
	case "appbt":
		c := appbt.Tiny()
		c.Iters = iters
		app = appbt.New(c)
	case "barnes":
		c := barnes.Tiny()
		c.Iters = iters
		app = barnes.New(c)
	case "mp3d":
		c := mp3d.Tiny()
		c.Steps = iters
		app = mp3d.New(c)
	case "ocean":
		c := ocean.Tiny()
		c.Iters = iters
		app = ocean.New(c)
	case "em3d":
		c := em3d.Tiny()
		c.Iters = iters
		if system == SysUpdate {
			app = em3d.NewUpdateApp(c, in.upd)
		} else {
			app = em3d.New(c)
		}
	default:
		t.Fatalf("unknown benchmark %q", bench)
	}
	app.Setup(in.m)
	runtime.GC() // the caller turns collection off: collect only between runs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = in.m.Run(app.Body)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(in.m); err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// TestRunPhaseAllocatesOnlyAtSetUp: after set-up, a simulation allocates
// nothing per miss, per message or per iteration — coherence state has a
// fixed size per block, as in the paper (§3). Doubling the iterations
// must therefore leave the run phase's allocation count where it was,
// on every protocol, at a cache that misses and one that holds the data.
// Barnes is in the Stache rows because its cells have more than six
// sharers, so it exercises the sharer set's overflow vector.
func TestRunPhaseAllocatesOnlyAtSetUp(t *testing.T) {
	if testing.Short() {
		t.Skip("64 simulations; skipped with -short")
	}
	skipUnderRace(t)
	// The slack is for pool high-water marks: a packet pool, a run queue,
	// a transaction list or a home's overflow vectors that reach a new
	// peak in a later iteration grow once.
	const slack = 32
	// One processor, as testing.AllocsPerRun measures, and no collection
	// inside a measured run: either moves a run's count by up to one
	// machine's worth of contexts (which processor's free list a
	// context's goroutine comes off; caches a collection empties and the
	// run refills), so the same point could read 16 apart from one run
	// to the next.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type row struct {
		system System
		bench  string
	}
	var rows []row
	for _, sys := range []System{SysDirNNB, SysStache, SysBlizzard} {
		for _, b := range BenchNames {
			rows = append(rows, row{sys, b})
		}
	}
	rows = append(rows, row{SysUpdate, "em3d"})
	for _, cache := range []int{4 << 10, 64 << 10} {
		for _, r := range rows {
			t.Run(fmt.Sprintf("%s/%s/%dK", r.system, r.bench, cache>>10), func(t *testing.T) {
				at4 := runPhaseAllocs(t, r.system, r.bench, cache, 4)
				at8 := runPhaseAllocs(t, r.system, r.bench, cache, 8)
				t.Logf("run-phase allocations: %d at 4 iterations, %d at 8", at4, at8)
				if at8 > at4+slack {
					t.Errorf("run phase allocates %d more at 8 iterations than at 4 (%d → %d), want at most %d",
						at8-at4, at4, at8, slack)
				}
			})
		}
	}
}
