package harness

import (
	"bytes"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/sim"
)

// TestFigure3Shape checks the paper's Figure 3 claims on the reduced
// scale for one capacity-sensitive benchmark: Typhoon/Stache wins when
// the working set overflows the cache and loses (but within reason) when
// it fits.
func TestFigure3Shape(t *testing.T) {
	cells, err := Figure3(Fig3Options{
		Scale:   ScaleReduced,
		Apps:    []string{"ocean"},
		Configs: []Fig3Config{{SetSmall, 4}, {SetSmall, 64}, {SetLarge, 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig3Cell{}
	for _, c := range cells {
		byKey[string(c.Set)+"/"+strconv.Itoa(c.CacheKB)] = c
	}
	if r := byKey["small/4"].Relative; r >= 1 {
		t.Errorf("small/4K relative = %.3f, want < 1 (capacity misses become local)", r)
	}
	if r := byKey["small/64"].Relative; r <= 1 || r > 1.6 {
		t.Errorf("small/64K relative = %.3f, want in (1, 1.6] (cache-resident: DirNNB wins moderately)", r)
	}
	if r := byKey["large/64"].Relative; r >= 1 {
		t.Errorf("large/64K relative = %.3f, want < 1 (working set overflows again)", r)
	}
}

// TestFigure4Shape checks the paper's Figure 4 claims: all three systems
// agree with no remote edges; cost grows with the remote fraction; the
// custom update protocol grows slowest and clearly beats DirNNB at 50%.
func TestFigure4Shape(t *testing.T) {
	pts, err := Figure4(Fig4Options{Scale: ScaleReduced, Set: SetSmall, Pcts: []int{0, 50}})
	if err != nil {
		t.Fatal(err)
	}
	p0, p50 := pts[0], pts[1]
	near := func(a, b float64) bool { return a/b < 1.05 && b/a < 1.05 }
	if !near(p0.DirNNB, p0.Stache) || !near(p0.DirNNB, p0.Update) {
		t.Errorf("at 0%% remote the systems should agree: %+v", p0)
	}
	if p50.DirNNB <= p0.DirNNB || p50.Stache <= p0.Stache || p50.Update <= p0.Update {
		t.Errorf("cycles/edge must grow with remote fraction: %+v vs %+v", p0, p50)
	}
	if p50.Update >= p50.Stache {
		t.Errorf("update (%.2f) must beat stache (%.2f) at 50%%", p50.Update, p50.Stache)
	}
	if p50.Update >= p50.DirNNB*0.8 {
		t.Errorf("update (%.2f) must beat DirNNB (%.2f) by a clear margin at 50%%", p50.Update, p50.DirNNB)
	}
}

// TestMissCostsComparable pins the paper's central quantitative claim:
// the user-level Stache remote-miss path costs about the same as the
// hardware DirNNB path (the paper's +-30%).
func TestMissCostsComparable(t *testing.T) {
	costs := map[System]float64{}
	for _, sys := range []System{SysDirNNB, SysStache} {
		mcfg := MachineConfig(ScaleReduced, 4<<10)
		mcfg.Nodes = 2
		refetch, err := MeasureRefetch(mcfg, sys)
		if err != nil {
			t.Fatal(err)
		}
		costs[sys] = float64(refetch)
	}
	ratio := costs[SysStache] / costs[SysDirNNB]
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("coherence-refetch ratio stache/dirnnb = %.2f, want within +-30%%", ratio)
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	cells := []Fig3Cell{{App: "ocean", Set: SetSmall, CacheKB: 4, Typhoon: 90, DirNNB: 100, Relative: 0.9}}
	if err := RenderFigure3(&buf, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ocean") || !strings.Contains(buf.String(), "0.900") {
		t.Errorf("figure 3 render missing content:\n%s", buf.String())
	}
	buf.Reset()
	pts := []Fig4Point{{PctRemote: 50, DirNNB: 49.1, Stache: 45.3, Update: 21.4}}
	if err := RenderFigure4(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "21.400") {
		t.Errorf("figure 4 render missing content:\n%s", buf.String())
	}
}

func TestMakeAppUnknown(t *testing.T) {
	if _, err := MakeApp("nope", ScaleReduced, SetSmall); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestTable3PaperSizes pins the paper's Table 3 data-set parameters.
func TestTable3PaperSizes(t *testing.T) {
	type sized interface{ Name() string }
	check := func(name string, set DataSet, want string) {
		t.Helper()
		app, err := MakeApp(name, ScalePaper, set)
		if err != nil {
			t.Fatal(err)
		}
		got := describe(app)
		if got != want {
			t.Errorf("%s %s = %q, want %q", name, set, got, want)
		}
	}
	check("appbt", SetSmall, "12x12x12")
	check("appbt", SetLarge, "24x24x24")
	check("barnes", SetSmall, "2048 bodies")
	check("barnes", SetLarge, "8192 bodies")
	check("mp3d", SetSmall, "10000 mols")
	check("mp3d", SetLarge, "50000 mols")
	check("ocean", SetSmall, "98x98 grid")
	check("ocean", SetLarge, "386x386 grid")
	check("em3d", SetSmall, "64000 nodes, degree 10")
	check("em3d", SetLarge, "192000 nodes, degree 15")
}

// ablationRows runs one sweep's points as a one-part batch, as
// RunAblations would under its -only key, and returns the sweep's rows.
func ablationRows(t *testing.T, sp SimParams, points func(Scale, SimParams) []ablationPoint) []AblationRow {
	t.Helper()
	var rows []AblationRow
	if err := runParts(sp, ablationPart(points(ScaleReduced, sp), func(r []AblationRow) error {
		rows = r
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestAblationBlockSize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ablationRows(t, SimParams{}, blockSizePoints)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger blocks must reduce the fault count (more data per fetch).
	if rows[2].Extra["faults"] >= rows[0].Extra["faults"] {
		t.Errorf("128B blocks should fault less than 32B: %d vs %d",
			rows[2].Extra["faults"], rows[0].Extra["faults"])
	}
}

func TestAblationPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ablationRows(t, SimParams{}, placementPoints)
	byLabel := map[string]AblationRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// Careful placement must recover most of DirNNB's disadvantage
	// (paper §6), while Stache barely cares about placement.
	if byLabel["dirnnb/owner-placed"].Cycles >= byLabel["dirnnb/naive"].Cycles {
		t.Errorf("owner placement should help DirNNB: %d vs %d",
			byLabel["dirnnb/owner-placed"].Cycles, byLabel["dirnnb/naive"].Cycles)
	}
	stRatio := float64(byLabel["typhoon-stache/naive"].Cycles) /
		float64(byLabel["typhoon-stache/owner-placed"].Cycles)
	dirRatio := float64(byLabel["dirnnb/naive"].Cycles) /
		float64(byLabel["dirnnb/owner-placed"].Cycles)
	if stRatio > dirRatio {
		t.Errorf("placement sensitivity: stache %.2fx vs dirnnb %.2fx; stache should care less", stRatio, dirRatio)
	}
}

func TestAblationStacheBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ablationRows(t, SimParams{}, stacheBudgetPoints)
	if rows[0].Extra["replacements"] != 0 {
		t.Errorf("unbounded budget replaced %d pages", rows[0].Extra["replacements"])
	}
	last := rows[len(rows)-1]
	if last.Extra["replacements"] == 0 {
		t.Error("tightest budget produced no replacements")
	}
	// Replacement changes the protocol mix materially (dropped pages
	// trade invalidation round trips for refetches — it can go either
	// way, cf. the paper's check-in discussion in §4).
	diff := float64(last.Cycles) / float64(rows[0].Cycles)
	if diff > 0.99 && diff < 1.01 {
		t.Errorf("tight budget changed cycles by <1%% (%.3f); replacement has no effect?", diff)
	}
}

func TestAblationNetLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ablationRows(t, SimParams{}, netLatencyPoints)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Both systems slow down as latency rises.
	if rows[4].Cycles <= rows[0].Cycles || rows[5].Cycles <= rows[1].Cycles {
		t.Error("higher network latency should cost both systems")
	}
}

func TestAblationEM3DProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ablationRows(t, SimParams{}, em3dProtocolPoints)
	byLabel := map[string]AblationRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	plain := byLabel["typhoon-stache"].Extra["net-messages"]
	checkin := byLabel["typhoon-stache+checkin"].Extra["net-messages"]
	update := byLabel["typhoon-update"].Extra["net-messages"]
	if !(update < checkin && checkin < plain) {
		t.Errorf("message chain should be update < checkin < stache: %d, %d, %d", update, checkin, plain)
	}
	if byLabel["typhoon-update"].Cycles >= byLabel["typhoon-stache"].Cycles {
		t.Error("update protocol should beat plain stache in cycles")
	}
}

func TestAblationMigratory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ablationRows(t, SimParams{}, migratoryPoints)
	plain, mig := rows[0], rows[1]
	if mig.Extra["migratory-grants"] == 0 {
		t.Fatal("migratory detection never fired on mp3d")
	}
	if mig.Cycles >= plain.Cycles {
		t.Errorf("migratory (%d) should beat plain (%d) on mp3d", mig.Cycles, plain.Cycles)
	}
	if mig.Extra["upgrades"] >= plain.Extra["upgrades"] {
		t.Errorf("migratory should cut upgrade requests: %d vs %d",
			mig.Extra["upgrades"], plain.Extra["upgrades"])
	}
}

// TestRunAblationsSimulatesEachPointOnce: the sweeps name 47 points,
// and 5 of them twice — ocean small/4K on DirNNB and on Stache in
// placement, netlatency and the contention grid, and em3d small on
// Stache at the default cache in blocksize and budget. RunAblations
// submits them as one batch, which simulates the 42 distinct ones
// (TestSubmitPointsSimulatesEqualPointsOnce: one job per distinct
// point).
func TestRunAblationsSimulatesEachPointOnce(t *testing.T) {
	var points []Point
	for _, p := range ablationParts(io.Discard, ScaleReduced, SimParams{}, "") {
		points = append(points, p.points...)
	}
	distinct, _ := distinctPoints(points)
	if len(points) != 47 || len(distinct) != 42 {
		t.Errorf("the ablations batch names %d points and simulates %d, want 47 and 42", len(points), len(distinct))
	}
	if got := len(ablationParts(io.Discard, ScaleReduced, SimParams{}, "budget")); got != 1 {
		t.Errorf("-only budget selects %d sweeps, want 1", got)
	}
}

// TestContentionPartFold checks the contention sweep's fold, which no
// pinned table covers: the cells' order, their ratios, that each app's
// ideal row is its Figure 3 small/4K bar, and that each queueing column
// reads the counter its contention knob drives — a renamed counter would
// print zeros.
func TestContentionPartFold(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var cells []ContentionCell
	cp := contentionPart(ScaleReduced, SimParams{}, func(c []ContentionCell) error {
		cells = c
		return nil
	})
	if catalogue := ablationParts(io.Discard, ScaleReduced, SimParams{}, "contention"); len(catalogue) != 1 ||
		!reflect.DeepEqual(catalogue[0].points, cp.points) {
		t.Fatal("the catalogue's contention part runs other points than contentionPart")
	}
	if err := runParts(SimParams{}, cp); err != nil {
		t.Fatal(err)
	}
	if want := len(contentionApps) * len(ContentionPoints); len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	fig3 := map[string][2]sim.Time{}
	for _, line := range strings.Split(string(goldenBody(t, "figure3")), "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[1] == "small/4K" {
			dir, _ := strconv.ParseUint(f[2], 10, 64)
			typh, _ := strconv.ParseUint(f[3], 10, 64)
			fig3[f[0]] = [2]sim.Time{sim.Time(dir), sim.Time(typh)}
		}
	}
	for i, c := range cells {
		app, pt := contentionApps[i/len(ContentionPoints)], ContentionPoints[i%len(ContentionPoints)]
		if c.App != app || c.Point != pt {
			t.Fatalf("cell %d is %s %v, want %s %v", i, c.App, c.Point, app, pt)
		}
		if want := float64(c.Typhoon) / float64(c.DirNNB); c.Relative != want {
			t.Errorf("%s %v: relative %v, want %v", app, pt, c.Relative, want)
		}
		if pt == (ContentionPoint{}) {
			if got, want := [2]sim.Time{c.DirNNB, c.Typhoon}, fig3[app]; got != want {
				t.Errorf("%s ideal: DirNNB/Typhoon cycles %v, want Figure 3's small/4K bar %v", app, got, want)
			}
		}
		if pt.LinkBytesPerCycle == 0 && (c.DirNetQueue != 0 || c.TyphNetQueue != 0) {
			t.Errorf("%s %v: net queue %d/%d at infinite bandwidth, want 0/0", app, pt, c.DirNetQueue, c.TyphNetQueue)
		}
		if pt.OccupancyCycles == 0 && (c.DirAgentWait != 0 || c.TyphAgentWait != 0) {
			t.Errorf("%s %v: agent wait %d/%d at zero occupancy, want 0/0", app, pt, c.DirAgentWait, c.TyphAgentWait)
		}
		if pt.OccupancyCycles > 0 && (c.DirAgentWait == 0 || c.TyphAgentWait == 0) {
			t.Errorf("%s %v: agent wait %d/%d, want both non-zero", app, pt, c.DirAgentWait, c.TyphAgentWait)
		}
		if pt == (ContentionPoint{4, 20}) && c.DirNetQueue == 0 {
			t.Errorf("%s %v: DirNNB net queue is 0, want non-zero", app, pt)
		}
	}
}

// TestRenderAblationNotesInNameOrder: a row's notes come from a map
// (the migratory sweep has two keys per row), so rendering must sort
// them or one sweep prints differently from run to run.
func TestRenderAblationNotesInNameOrder(t *testing.T) {
	rows := []AblationRow{{Label: "on", Cycles: 7, Extra: map[string]uint64{"upgrades": 3, "migratory-grants": 5}}}
	var first string
	for i := 0; i < 50; i++ {
		var b bytes.Buffer
		if err := RenderAblation(&b, "t", rows); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
			if !strings.Contains(first, "migratory-grants=5 upgrades=3") {
				t.Fatalf("notes not in name order:\n%s", first)
			}
		} else if b.String() != first {
			t.Fatalf("render %d differs from the first:\n%s\n%s", i, b.String(), first)
		}
	}
}

func TestAblationSoftwareTempest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ablationRows(t, SimParams{}, softwareTempestPoints)
	byLabel := map[string]AblationRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	for _, name := range []string{"ocean", "em3d"} {
		hw := float64(byLabel[name+"/typhoon"].Cycles)
		sw := float64(byLabel[name+"/software"].Cycles)
		if sw/hw <= 1.05 || sw/hw > 10 {
			t.Errorf("%s software/typhoon ratio %.2f outside plausible (1.05, 10]", name, sw/hw)
		}
	}
}
