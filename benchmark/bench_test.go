package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
)

var updateManifest = flag.Bool("update-manifest", false, "rewrite ../BENCHMARK.json from the program's workload and metric tables")

func TestQuantilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}, {0, 1}, {1, 10}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	sum := summarize([]float64{3, 1, 2})
	if sum.N != 3 || sum.Min != 1 || sum.Median != 2 || sum.Max != 3 || sum.TailPct != 0 {
		t.Errorf("summarize(3,1,2) = %+v", sum)
	}
	if got := (summary{Q1: 9, Median: 10, Q3: 12}).spread(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if s := summarize(samples); s.TailPct != 90 || math.Abs(s.Tail-90.9) > 1e-9 {
		t.Errorf("tail of 1..100 = p%v %v, want p90 90.9", s.TailPct, s.Tail)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "pass", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "point", Start: 10 * ms, End: 60 * ms, Parent: 0},
		{Name: "machine.build", Start: 12 * ms, End: 20 * ms, Parent: 1},
		{Name: "machine.run", Start: 20 * ms, End: 58 * ms, Parent: 1},
		{Name: "point", Start: 60 * ms, End: 95 * ms, Parent: 0},
		{Name: "machine.run", Start: 61 * ms, End: 94 * ms, Parent: 4},
	}
	want := []time.Duration{15 * ms, 4 * ms, 8 * ms, 38 * ms, 2 * ms, 33 * ms}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	// Self times of a subtree add up to its root's duration exactly.
	if sum := got[1] + got[2] + got[3]; sum != spans[1].End-spans[1].Start {
		t.Errorf("self times under the first point sum to %v, its span is %v", sum, spans[1].End-spans[1].Start)
	}
	byName := selfByName(spans)
	if byName["machine.run"] != 71*ms || byName["point"] != 6*ms {
		t.Errorf("selfByName = %v", byName)
	}
	if got, want := pointSelfFrac(spans), 6.0/85.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("pointSelfFrac = %v, want %v", got, want)
	}
}

func TestTracerNestsByCallOrder(t *testing.T) {
	var none *tracer
	none.end(none.begin("ignored")) // a nil tracer records nothing

	tr := newTracer()
	tr.pass = 3
	a := tr.begin("pass")
	b := tr.begin("point")
	tr.end(b)
	c := tr.begin("harness.render")
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || len(tr.open) != 0 {
		t.Fatalf("spans %d open %d", len(tr.spans), len(tr.open))
	}
	for i, wantParent := range []int{-1, 0, 0} {
		if tr.spans[i].Parent != wantParent || tr.spans[i].Pass != 3 || tr.spans[i].End < tr.spans[i].Start {
			t.Errorf("span %d = %+v, want parent %d pass 3", i, tr.spans[i], wantParent)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("closing a span that is not innermost did not panic")
		}
	}()
	x := tr.begin("outer")
	tr.begin("inner")
	tr.end(x)
}

func TestCalibratorScalesByTheSlicesAroundAUnit(t *testing.T) {
	var none *calibrator
	if got := none.mark(0); got != -1 {
		t.Errorf("nil calibrator marked slice %d, want -1", got)
	}

	c := &calibrator{slices: []float64{calNominalS, 3 * calNominalS, calNominalS}}
	// A unit between a nominal slice and one three times slower ran on a
	// host half as fast: its wall seconds count half.
	if got := c.scale(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scale between a nominal and a 3x slice = %v, want 0.5", got)
	}

	c = &calibrator{}
	first := c.mark(time.Hour) // no slice yet: runs one whatever the interval
	again := c.mark(time.Hour) // the latest is fresh: runs none
	next := c.mark(0)
	c.close()
	if first != 0 || again != 0 || next != 1 || len(c.slices) != 3 {
		t.Fatalf("marks %d %d %d over %d slices, want 0 0 1 over 3", first, again, next, len(c.slices))
	}
	for i, s := range c.slices {
		if s <= 0 {
			t.Errorf("slice %d took %v s", i, s)
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func programManifest() manifest {
	m := manifest{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.name, d.unit, d.better})
	}
	return m
}

func TestNamesAndManifest(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	want := programManifest()
	if *updateManifest {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(data))
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json does not describe this program (go test ./benchmark -run TestNamesAndManifest -update-manifest rewrites it)\n got %+v\nwant %+v", got, want)
	}
}

func TestExpectedCoversEveryWorkload(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		pts := w.points(expectedSeed)
		ref := exp.Workloads[w.name]
		if len(ref) != len(pts) {
			t.Errorf("%s: expected.json has %d points, the workload %d", w.name, len(ref), len(pts))
			continue
		}
		for i, pt := range pts {
			if ref[i].Label != pt.Label() {
				t.Errorf("%s point %d: expected.json says %s, the workload %s", w.name, i, ref[i].Label, pt.Label())
			}
		}
	}
}

// A by-name em3d point rewritten to carry the seeded workload config must
// key like the original at the committed seed, or the warm cache and the
// sweep binaries would disagree about what was simulated.
func TestSeededPointKeysLikeByNamePoint(t *testing.T) {
	for _, pt := range harness.Fig3Points(harness.ScaleReduced, []string{"em3d", "ocean"}, harness.Fig3Configs(harness.ScaleReduced), harness.SimParams{}, true) {
		want, err := harness.PointKey("code", pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := harness.PointKey("code", seedPoint(pt, expectedSeed))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: seeded key %s, by-name key %s", pt.Label(), got, want)
		}
		other, err := harness.PointKey("code", seedPoint(pt, heldOutSeed))
		if err != nil {
			t.Fatal(err)
		}
		if other == want {
			t.Errorf("%s: seed %d keys like seed %d", pt.Label(), heldOutSeed, expectedSeed)
		}
	}
}

func TestCompareSigsCountsAndNamesMismatches(t *testing.T) {
	want := []sig{{"a/dirnnb/4K", 10, 8, "aa"}, {"a/typhoon-stache/4K", 12, 9, "bb"}}
	if n := compareSigs(io.Discard, "x", want, want); n != 0 {
		t.Errorf("identical results: %d failures", n)
	}
	got := []sig{want[0], {"a/typhoon-stache/4K", 12, 9, "bc"}}
	if n := compareSigs(io.Discard, "x", want, got); n != 1 {
		t.Errorf("one differing counter hash: %d failures, want 1", n)
	}
	if n := compareSigs(io.Discard, "x", want, got[:1]); n != 1 {
		t.Errorf("missing result: %d failures, want 1", n)
	}
}

// TestSmokePass runs one point of every workload (two for the
// cache-served ones) through an untraced and a traced pass against
// expected.json, so the benchmark cannot rot unnoticed between the runs
// that use it.
func TestSmokePass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates for a few seconds")
	}
	e := &env{seed: expectedSeed, stderr: io.Discard, runDir: t.TempDir(), code: harness.CodeID()}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	if e.setupFailed != 0 {
		t.Fatalf("%d cache-set points contradict expected.json", e.setupFailed)
	}
	for i := range workloads {
		w := &workloads[i]
		pts := w.points(e.seed)
		ref := e.expected.Workloads[w.name]
		if w.kind == kindSimulate {
			pts, ref = pts[len(pts)-1:], ref[len(ref)-1:] // the cheapest point is last
		} else {
			pts, ref = pts[:2], ref[:2]
		}
		tr := newTracer()
		for _, tracer := range []*tracer{nil, tr} {
			out := w.runPass(e, pts, tracer, nil)
			if out.err != nil {
				t.Fatalf("%s: %v", w.name, out.err)
			}
			if n := compareSigs(os.Stderr, w.name, ref, sigsOf(pts, out.results)); n != 0 {
				t.Errorf("%s: %d points differ from expected.json", w.name, n)
			}
			if out.dur <= 0 || out.alloc == 0 {
				t.Errorf("%s: pass took %v and allocated %d bytes", w.name, out.dur, out.alloc)
			}
		}
		if len(tr.open) != 0 || len(tr.spans) < 3 {
			t.Errorf("%s: traced pass left %d spans open of %d", w.name, len(tr.open), len(tr.spans))
		}
		if frac := pointSelfFrac(tr.spans); w.kind == kindSimulate && frac > 0.02 {
			t.Errorf("%s: layer spans leave %.1f%% of the point unexplained, want <= 2%%", w.name, 100*frac)
		}
	}
}
