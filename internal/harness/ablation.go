package harness

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label  string
	Cycles sim.Time
	Extra  map[string]uint64
}

// Every ablation takes the sweep's SimParams (link bandwidth and agent
// occupancy applied to every system, plus the pool and timeout
// policy); each configuration is one independent sweep point, and the
// row order is fixed by the sweep definition regardless of completion
// order. Rows are bit-identical at every worker count.

// ablationPoint pairs a sweep point with its presentation: the row
// label and the counters the row reports.
type ablationPoint struct {
	pt    Point
	label string
	extra func(RunResult) map[string]uint64
}

// A part is one table's share of a batch: its points, and the fold of
// their results, which arrive in point order.
type part struct {
	points []Point
	fold   func([]PointResult) error
}

// runParts runs every part's points as one SubmitPoints batch, so a
// point that several parts name simulates once, then folds each part's
// results in part order. A single ablation or the contention sweep on
// its own is the one-part case.
func runParts(sp SimParams, parts ...part) error {
	var points []Point
	for _, p := range parts {
		points = append(points, p.points...)
	}
	results, err := SubmitPoints(sp, points)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err := p.fold(results[:len(p.points)]); err != nil {
			return err
		}
		results = results[len(p.points):]
	}
	return nil
}

// ablationPart folds an ablation's results into its rows and hands them
// to use.
func ablationPart(aps []ablationPoint, use func([]AblationRow) error) part {
	points := make([]Point, len(aps))
	for i := range aps {
		points[i] = aps[i].pt
	}
	return part{points: points, fold: func(results []PointResult) error {
		rows := make([]AblationRow, len(aps))
		for i, ap := range aps {
			rows[i] = AblationRow{Label: ap.label, Cycles: results[i].Res.ROICycles}
			if ap.extra != nil {
				rows[i].Extra = ap.extra(results[i].RunResult)
			}
		}
		return use(rows)
	}}
}

// runAblation runs one ablation's points and returns its rows.
func runAblation(sp SimParams, aps []ablationPoint) (rows []AblationRow, err error) {
	err = runParts(sp, ablationPart(aps, func(r []AblationRow) error {
		rows = r
		return nil
	}))
	return rows, err
}

// ablationSweeps is the catalogue RunAblations runs, in order: each
// sweep's -only key and its part of the batch, which renders the sweep's
// table to w. The contention sweep sets its own link bandwidth and agent
// occupancy per point, so it ignores sp's.
var ablationSweeps = []struct {
	key  string
	part func(w io.Writer, scale Scale, sp SimParams) part
}{
	{"blocksize", ablationTable("Coherence-block size (Typhoon/Stache, EM3D small)", blockSizePoints)},
	{"placement", ablationTable("Data placement (Ocean small, 4 KB caches)", placementPoints)},
	{"budget", ablationTable("Stache page budget (EM3D small)", stacheBudgetPoints)},
	{"netlatency", ablationTable("Network latency sensitivity (Ocean small, 4 KB caches)", netLatencyPoints)},
	{"migratory", ablationTable("Migratory-sharing extension (MP3D small)", migratoryPoints)},
	{"em3d", ablationTable("EM3D protocol chain at 30% remote edges (paper section 4)",
		func(sc Scale, sp SimParams) []ablationPoint { return em3dProtocolPoints(sc, 30, sp) })},
	{"software", ablationTable("Software Tempest (Blizzard) vs. Typhoon hardware", softwareTempestPoints)},
	{"contention", func(w io.Writer, scale Scale, sp SimParams) part {
		return contentionPart(scale, sp, func(cells []ContentionCell) error {
			return endTable(w, RenderContention(w, cells))
		})
	}},
}

// ablationTable is an ablation's catalogue entry: its points, whose rows
// render under title.
func ablationTable(title string, points func(Scale, SimParams) []ablationPoint) func(io.Writer, Scale, SimParams) part {
	return func(w io.Writer, scale Scale, sp SimParams) part {
		return ablationPart(points(scale, sp), func(rows []AblationRow) error {
			return endTable(w, RenderAblation(w, title, rows))
		})
	}
}

// endTable ends a rendered table with a blank line, unless rendering it
// failed with err.
func endTable(w io.Writer, err error) error {
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

// AblationKeys lists the keys RunAblations accepts, in run order.
func AblationKeys() []string {
	var keys []string
	for _, a := range ablationSweeps {
		keys = append(keys, a.key)
	}
	return keys
}

// RunAblations runs the catalogue's sweeps — only the one named by only,
// one of AblationKeys, unless it is "" — as one batch, so a point
// several sweeps share simulates once, and renders each sweep's table to
// w in AblationKeys order, each followed by a blank line.
func RunAblations(w io.Writer, scale Scale, sp SimParams, only string) error {
	return runParts(sp, ablationParts(w, scale, sp, only)...)
}

// ablationParts is RunAblations' batch: the selected sweeps' parts.
func ablationParts(w io.Writer, scale Scale, sp SimParams, only string) []part {
	var parts []part
	for _, a := range ablationSweeps {
		if only == "" || only == a.key {
			parts = append(parts, a.part(w, scale, sp))
		}
	}
	return parts
}

// netMsgs counts a run's remote network messages (packets minus
// node-local sends).
func netMsgs(res machine.Result) uint64 {
	var msgs uint64
	for _, v := range res.Net.VNets {
		msgs += v.Packets
	}
	return msgs - res.Net.LocalSends
}

// AblationBlockSize sweeps the coherence-block size on Typhoon/Stache
// (the paper fixes 32 bytes but defines blocks as 32-128 bytes, §2.4):
// larger blocks amortise handler overhead against false sharing and
// wasted transfer.
func AblationBlockSize(scale Scale, sp SimParams) ([]AblationRow, error) {
	return runAblation(sp, blockSizePoints(scale, sp))
}

func blockSizePoints(scale Scale, sp SimParams) []ablationPoint {
	var aps []ablationPoint
	for _, bs := range []int{32, 64, 128} {
		cfg := MachineConfig(scale, 0)
		cfg.BlockSize = bs
		sp.Apply(&cfg)
		aps = append(aps, ablationPoint{
			pt:    Point{Cfg: cfg, System: SysStache, Bench: "em3d", Scale: scale, Set: SetSmall},
			label: fmt.Sprintf("block=%dB", bs),
			extra: func(rr RunResult) map[string]uint64 {
				return map[string]uint64{"faults": rr.Res.Counters.Get("stache.remote_faults")}
			},
		})
	}
	return aps
}

// AblationPlacement quantifies paper §6's discussion that careful data
// placement recovers much of DirNNB's disadvantage: Ocean under DirNNB
// with the naive round-robin placement of a shared malloc versus
// owner-aligned bands, against Typhoon/Stache which needs no placement.
// The owner-placed DirNNB row is also the steady state of first-touch
// placement (§6 cites Stenstrom et al.): each grid page lands on the
// node that initialises it, its owner.
func AblationPlacement(scale Scale, sp SimParams) ([]AblationRow, error) {
	return runAblation(sp, placementPoints(scale, sp))
}

func placementPoints(scale Scale, sp SimParams) []ablationPoint {
	cacheKB := 4
	mcfg := MachineConfig(scale, cacheKB<<10)
	sp.Apply(&mcfg)
	ocfg := OceanConfig(scale, SetSmall)

	var aps []ablationPoint
	for _, c := range []struct {
		label string
		sys   System
		owner bool
	}{
		{"dirnnb/naive", SysDirNNB, false},
		{"dirnnb/owner-placed", SysDirNNB, true},
		{"typhoon-stache/naive", SysStache, false},
		{"typhoon-stache/owner-placed", SysStache, true},
	} {
		cfg := ocfg
		cfg.OwnerPlaced = c.owner
		aps = append(aps, ablationPoint{
			pt:    Point{Cfg: mcfg, System: c.sys, Ocean: &cfg},
			label: c.label,
		})
	}
	return aps
}

// AblationStacheBudget sweeps the per-node stache-page budget to expose
// the FIFO page-replacement machinery (§3: "replacements are rare" with
// ample memory; a tight budget makes them common). budget=0 is exactly
// the plain Stache run: its canonical encoding has no budget line, so in
// RunAblations' batch it is one simulation with blocksize's 32-byte row.
func AblationStacheBudget(scale Scale, sp SimParams) ([]AblationRow, error) {
	return runAblation(sp, stacheBudgetPoints(scale, sp))
}

func stacheBudgetPoints(scale Scale, sp SimParams) []ablationPoint {
	ecfg := EM3DConfig(scale, SetSmall)
	mcfg := MachineConfig(scale, 0)
	sp.Apply(&mcfg)
	var aps []ablationPoint
	for _, budget := range []int{0, 16, 4, 2} {
		label := "unbounded"
		if budget > 0 {
			label = fmt.Sprintf("%d pages", budget)
		}
		aps = append(aps, ablationPoint{
			pt:    Point{Cfg: mcfg, System: SysStache, EM3D: &ecfg, StacheMaxPages: budget},
			label: label,
			extra: func(rr RunResult) map[string]uint64 {
				return map[string]uint64{"replacements": rr.Res.Counters.Get("stache.replacements")}
			},
		})
	}
	return aps
}

// AblationNetLatency sweeps the network latency (Table 2's 11 cycles is
// "probably optimistic for future systems" and deliberately favours
// DirNNB; this quantifies the sensitivity the paper mentions).
func AblationNetLatency(scale Scale, sp SimParams) ([]AblationRow, error) {
	return runAblation(sp, netLatencyPoints(scale, sp))
}

func netLatencyPoints(scale Scale, sp SimParams) []ablationPoint {
	var aps []ablationPoint
	for _, lat := range []sim.Time{11, 44, 88} {
		for _, sys := range []System{SysDirNNB, SysStache} {
			cfg := MachineConfig(scale, 4<<10)
			cfg.NetLatency = lat
			sp.Apply(&cfg)
			aps = append(aps, ablationPoint{
				pt:    Point{Cfg: cfg, System: sys, Bench: "ocean", Scale: scale, Set: SetSmall},
				label: fmt.Sprintf("net=%d/%s", lat, sys),
			})
		}
	}
	return aps
}

// RenderAblation prints an ablation sweep, each row's notes in name
// order so that two runs of one sweep can be diffed.
func RenderAblation(w io.Writer, title string, rows []AblationRow) error {
	t := &stats.Table{Title: title, Header: []string{"config", "cycles", "notes"}}
	for _, r := range rows {
		notes := ""
		for _, k := range slices.Sorted(maps.Keys(r.Extra)) {
			notes += fmt.Sprintf("%s=%d ", k, r.Extra[k])
		}
		t.AddRow(r.Label, stats.D(uint64(r.Cycles)), notes)
	}
	return t.Render(w)
}

// AblationEM3DProtocols reproduces the paper §4 argument chain at one
// remote-edge fraction: transparent shared memory needs four messages
// per remote datum per iteration, check-in annotations cut that to
// three by replacing the invalidation round trip, and the custom update
// protocol reaches the minimum of one.
func AblationEM3DProtocols(scale Scale, pctRemote int, sp SimParams) ([]AblationRow, error) {
	return runAblation(sp, em3dProtocolPoints(scale, pctRemote, sp))
}

func em3dProtocolPoints(scale Scale, pctRemote int, sp SimParams) []ablationPoint {
	ecfg := EM3DConfig(scale, SetSmall)
	ecfg.PctRemote = pctRemote
	mcfg := MachineConfig(scale, 0)
	sp.Apply(&mcfg)

	msgExtra := func(rr RunResult) map[string]uint64 {
		return map[string]uint64{"net-messages": netMsgs(rr.Res)}
	}
	return []ablationPoint{
		// DirNNB (hardware messages are not modeled as packets; report cycles).
		{pt: Point{Cfg: mcfg, System: SysDirNNB, EM3D: &ecfg}, label: "dirnnb"},
		{pt: Point{Cfg: mcfg, System: SysStache, EM3D: &ecfg}, label: "typhoon-stache", extra: msgExtra},
		// The check-in app is a distinct program, with its own line in the
		// point's encoding.
		{pt: Point{Cfg: mcfg, System: SysStache, EM3D: &ecfg, CheckIn: true}, label: "typhoon-stache+checkin", extra: msgExtra},
		// Custom update protocol.
		{pt: Point{Cfg: mcfg, System: SysUpdate, EM3D: &ecfg}, label: "typhoon-update", extra: msgExtra},
	}
}

// AblationMigratory measures the migratory-sharing optimisation (a
// user-level protocol-policy extension, off by default) on MP3D, whose
// scattered read-modify-writes are the pattern it targets. mig=false
// is the plain Stache run: its encoding has no migratory line.
func AblationMigratory(scale Scale, sp SimParams) ([]AblationRow, error) {
	return runAblation(sp, migratoryPoints(scale, sp))
}

func migratoryPoints(scale Scale, sp SimParams) []ablationPoint {
	mcfg := MachineConfig(scale, 64<<10)
	sp.Apply(&mcfg)
	var aps []ablationPoint
	for _, mig := range []bool{false, true} {
		label := "stache/plain"
		if mig {
			label = "stache/migratory"
		}
		aps = append(aps, ablationPoint{
			pt:    Point{Cfg: mcfg, System: SysStache, Bench: "mp3d", Scale: scale, Set: SetSmall, StacheMigratory: mig},
			label: label,
			extra: func(rr RunResult) map[string]uint64 {
				return map[string]uint64{
					"migratory-grants": rr.Res.Counters.Get("stache.migratory_grants"),
					"upgrades":         rr.Res.Counters.Get("stache.upgrades"),
				}
			},
		})
	}
	return aps
}

// AblationSoftwareTempest runs the same benchmark and the same
// unmodified Stache library on Typhoon and on the software Tempest
// implementation (the paper's announced "native version for existing
// machines", later published as Blizzard), quantifying what Typhoon's
// custom hardware buys.
func AblationSoftwareTempest(scale Scale, sp SimParams) ([]AblationRow, error) {
	return runAblation(sp, softwareTempestPoints(scale, sp))
}

func softwareTempestPoints(scale Scale, sp SimParams) []ablationPoint {
	var aps []ablationPoint
	for _, name := range []string{"ocean", "em3d"} {
		for _, software := range []bool{false, true} {
			cfg := MachineConfig(scale, 16<<10)
			sp.Apply(&cfg)
			sys, label := SysStache, name+"/typhoon"
			if software {
				sys, label = SysBlizzard, name+"/software"
			}
			aps = append(aps, ablationPoint{
				pt:    Point{Cfg: cfg, System: sys, Bench: name, Scale: scale, Set: SetSmall},
				label: label,
			})
		}
	}
	return aps
}
