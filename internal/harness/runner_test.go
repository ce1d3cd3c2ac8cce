package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/sim"
)

func TestRunAllOrdersResultsByJobIndex(t *testing.T) {
	const n = 100
	jobs := make([]job[int], n)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) { return i * i, nil }
	}
	for _, workers := range []int{0, 1, 3, 7, n + 5} {
		got, err := runPool(context.Background(), jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunAllEmpty(t *testing.T) {
	got, err := runPool(context.Background(), []job[int]{}, 4)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty jobs: got %v, %v", got, err)
	}
}

func TestRunAllFailFast(t *testing.T) {
	boom := errors.New("boom")
	jobs := make([]job[int], 20)
	var started int // guarded by the pool's serial execution (workers=1)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			started++
			if i == 3 {
				return 0, boom
			}
			return i, nil
		}
	}
	_, err := runPool(context.Background(), jobs, 1)
	if err != boom {
		t.Fatalf("err = %v, want job 3's own error, unwrapped", err)
	}
	// Fail-fast: with one worker, no job after the failure starts except
	// at most those already fed into the pipeline.
	if started > 5 {
		t.Errorf("fail-fast leaked: %d jobs started after job 3 failed", started)
	}
}

func TestRunAllCancelsContextOnFailure(t *testing.T) {
	// Job 1 either never starts (already-cancelled feed drained) or, if
	// it is in flight when job 0 fails, observes cancellation instead of
	// blocking forever.
	var ran, sawCancel bool
	jobs := []job[int]{
		func(context.Context) (int, error) { return 0, errors.New("first fails") },
		func(ctx context.Context) (int, error) {
			ran = true
			<-ctx.Done()
			sawCancel = true
			return 0, ctx.Err()
		},
	}
	if _, err := runPool(context.Background(), jobs, 2); err == nil {
		t.Fatal("expected error")
	}
	if ran && !sawCancel {
		t.Fatal("second job ran but never observed cancellation")
	}
}

// TestParallelDeterminism is the tentpole's correctness contract: every
// figure and sweep produces bit-identical results at any worker count,
// because results are slotted by job index and each simulated machine is
// self-contained.
func TestParallelDeterminism(t *testing.T) {
	t.Run("figure3", func(t *testing.T) {
		base := Fig3Options{
			Scale:   ScaleReduced,
			Apps:    []string{"ocean"},
			Configs: []Fig3Config{{SetSmall, 4}, {SetSmall, 64}, {SetLarge, 64}},
		}
		serial := base
		serial.Workers = 1
		parallel := base
		parallel.Workers = 4
		a, err := Figure3(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Figure3(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("figure 3 parallel != serial:\n%+v\n%+v", a, b)
		}
	})
	t.Run("figure4", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode")
		}
		skipUnderRace(t)
		base := Fig4Options{Scale: ScaleReduced, Set: SetSmall, Pcts: []int{0, 30}}
		serial := base
		serial.Workers = 1
		parallel := base
		parallel.Workers = 4
		a, err := Figure4(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Figure4(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("figure 4 parallel != serial:\n%+v\n%+v", a, b)
		}
	})
	t.Run("ablations", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode")
		}
		skipUnderRace(t)
		for _, tc := range []struct {
			name   string
			points func(Scale, SimParams) []ablationPoint
		}{
			{"blocksize", blockSizePoints},
			{"em3d-protocols", em3dProtocolPoints},
			{"netlatency", netLatencyPoints},
		} {
			a := ablationRows(t, SimParams{Workers: 1}, tc.points)
			b := ablationRows(t, SimParams{Workers: 4}, tc.points)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s parallel != serial:\n%+v\n%+v", tc.name, a, b)
			}
		}
	})
	t.Run("refetch", func(t *testing.T) {
		mcfg := MachineConfig(ScaleReduced, 4<<10)
		var a []sim.Time
		var jobs []job[sim.Time]
		for _, sys := range []System{SysDirNNB, SysStache} {
			lat, err := MeasureRefetch(mcfg, sys)
			if err != nil {
				t.Fatal(err)
			}
			a = append(a, lat)
			jobs = append(jobs, func(context.Context) (sim.Time, error) { return MeasureRefetch(mcfg, sys) })
		}
		b, err := runPool(context.Background(), jobs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("refetch parallel != serial: %v vs %v", a, b)
		}
	})
	t.Run("result-cache", func(t *testing.T) {
		skipUnderRace(t)
		// The result cache is a pure memoization layer: a pool with it, a
		// pool without it, and a second pool served entirely from the warm
		// cache must all return bit-identical results (the engine.*
		// counters, which describe the host, aside).
		pts := Fig3Points(ScaleReduced, []string{"appbt"},
			[]Fig3Config{{SetSmall, 4}, {SetSmall, 16}, {SetSmall, 64}}, SimParams{}, false)
		submit := func(cp CacheParams) []PointResult {
			t.Helper()
			results, err := LocalExecutor{Workers: 4, Cache: cp}.Submit(context.Background(), Batch{Points: pts})
			if err != nil {
				t.Fatal(err)
			}
			return results
		}
		cp := dirCache(t)
		cold, uncached, warm := submit(cp), submit(CacheParams{}), submit(cp)
		for i := range pts {
			want := stripEngine(uncached[i].RunResult)
			if got := stripEngine(cold[i].RunResult); !reflect.DeepEqual(got, want) {
				t.Errorf("point %d: cache on != cache off:\n%+v\n%+v", i, got, want)
			}
			if !reflect.DeepEqual(warm[i].RunResult, want) {
				t.Errorf("point %d: warm cache != uncached run:\n%+v\n%+v", i, warm[i].RunResult, want)
			}
			if warm[i].Origin != "" {
				t.Errorf("point %d: origin %q, want none", i, warm[i].Origin)
			}
		}
		if s := cp.Cache.Stats(); s.Misses != 6 || s.Stores != 6 || s.Hits != 6 {
			t.Errorf("stats = %+v, want 6 cold misses, 6 stores, 6 warm hits", s)
		}
	})
}

// TestFigure3ErrorPropagates checks fail-fast error aggregation through
// a real sweep: an unknown benchmark surfaces as an error, not a panic
// or a partial result.
func TestFigure3ErrorPropagates(t *testing.T) {
	_, err := Figure3(Fig3Options{
		Scale:     ScaleReduced,
		Apps:      []string{"ocean", "nope"},
		Configs:   []Fig3Config{{SetSmall, 4}},
		SimParams: SimParams{Workers: 4},
	})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown-benchmark error", err)
	}
}

func TestParseScaleAndDataSet(t *testing.T) {
	if _, err := ParseScale("paper"); err != nil {
		t.Error(err)
	}
	if _, err := ParseScale("reduced"); err != nil {
		t.Error(err)
	}
	if _, err := ParseScale("papr"); err == nil {
		t.Error("typo scale accepted")
	}
	if _, err := ParseDataSet("small"); err != nil {
		t.Error(err)
	}
	if _, err := ParseDataSet("big"); err == nil {
		t.Error("unknown data set accepted")
	}
	if !ValidBench("em3d") || ValidBench("em4d") {
		t.Error("ValidBench misclassifies")
	}
}

func Example_runPool() {
	jobs := []job[string]{
		func(context.Context) (string, error) { return "first", nil },
		func(context.Context) (string, error) { return "second", nil },
	}
	out, _ := runPool(context.Background(), jobs, 2)
	fmt.Println(out[0], out[1])
	// Output: first second
}

// TestSubmitPointsSimulatesEqualPointsOnce: two spellings of one
// simulation — ocean by name, and by its explicit config with NoCache
// set — are one job of the batch, and both slots get its result.
func TestSubmitPointsSimulatesEqualPointsOnce(t *testing.T) {
	cfg := MachineConfig(ScaleReduced, 4<<10)
	ocfg := OceanConfig(ScaleReduced, SetSmall)
	pts := []Point{
		{Cfg: cfg, System: SysStache, Bench: "ocean", Scale: ScaleReduced, Set: SetSmall},
		{Cfg: cfg, System: SysDirNNB, Bench: "ocean", Scale: ScaleReduced, Set: SetSmall},
		{Cfg: cfg, System: SysStache, Ocean: &ocfg, NoCache: true},
	}
	var done, total int
	results, err := SubmitPoints(SimParams{Workers: 2, Progress: func(d, n int) { done, total = d, n }}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if done != 2 || total != 2 {
		t.Errorf("progress ended at %d/%d, want 2/2 distinct simulations", done, total)
	}
	if len(results) != len(pts) || !reflect.DeepEqual(results[0], results[2]) {
		t.Errorf("equal points got different results:\n%+v\n%+v", results[0], results[2])
	}
	if results[1].System != SysDirNNB {
		t.Errorf("slot 1 holds %s, want the dirnnb point's result", results[1].System)
	}
}
