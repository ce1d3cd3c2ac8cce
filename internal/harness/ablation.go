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
// occupancy applied to every system, plus the
// pool/cache/executor/timeout policy); each configuration is one
// independent sweep point, and the row order is fixed by the sweep
// definition regardless of completion order. Rows are bit-identical
// at every worker count.

// ablationPoint pairs a sweep point with its presentation: the row
// label and the counters the row reports.
type ablationPoint struct {
	pt    Point
	label string
	extra func(RunResult) map[string]uint64
}

// runAblation submits an ablation's points and folds the results into
// rows.
func runAblation(sp SimParams, aps []ablationPoint) ([]AblationRow, error) {
	points := make([]Point, len(aps))
	for i := range aps {
		points[i] = aps[i].pt
	}
	results, err := SubmitPoints(sp, points)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(aps))
	for i, ap := range aps {
		rows[i] = AblationRow{Label: ap.label, Cycles: results[i].Res.ROICycles}
		if ap.extra != nil {
			rows[i].Extra = ap.extra(results[i].RunResult)
		}
	}
	return rows, nil
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
	return runAblation(sp, aps)
}

// AblationPlacement quantifies paper §6's discussion that careful data
// placement recovers much of DirNNB's disadvantage: Ocean under DirNNB
// with the naive round-robin placement of a shared malloc versus
// owner-aligned bands, against Typhoon/Stache which needs no placement.
// The owner-placed DirNNB row is also the steady state of first-touch
// placement (§6 cites Stenstrom et al.): each grid page lands on the
// node that initialises it, its owner.
func AblationPlacement(scale Scale, sp SimParams) ([]AblationRow, error) {
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
	return runAblation(sp, aps)
}

// AblationStacheBudget sweeps the per-node stache-page budget to expose
// the FIFO page-replacement machinery (§3: "replacements are rare" with
// ample memory; a tight budget makes them common). budget=0 is exactly
// the plain Stache run, and its canonical encoding has no budget line,
// so it shares a cache entry with other sweeps' runs.
func AblationStacheBudget(scale Scale, sp SimParams) ([]AblationRow, error) {
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
	return runAblation(sp, aps)
}

// AblationNetLatency sweeps the network latency (Table 2's 11 cycles is
// "probably optimistic for future systems" and deliberately favours
// DirNNB; this quantifies the sensitivity the paper mentions).
func AblationNetLatency(scale Scale, sp SimParams) ([]AblationRow, error) {
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
	return runAblation(sp, aps)
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
	ecfg := EM3DConfig(scale, SetSmall)
	ecfg.PctRemote = pctRemote
	mcfg := MachineConfig(scale, 0)
	sp.Apply(&mcfg)

	msgExtra := func(rr RunResult) map[string]uint64 {
		return map[string]uint64{"net-messages": netMsgs(rr.Res)}
	}
	aps := []ablationPoint{
		// DirNNB (hardware messages are not modeled as packets; report cycles).
		{pt: Point{Cfg: mcfg, System: SysDirNNB, EM3D: &ecfg}, label: "dirnnb"},
		{pt: Point{Cfg: mcfg, System: SysStache, EM3D: &ecfg}, label: "typhoon-stache", extra: msgExtra},
		// The check-in app is a distinct program and carries its own key
		// field; the plain variant shares its entry with any other sweep.
		{pt: Point{Cfg: mcfg, System: SysStache, EM3D: &ecfg, CheckIn: true}, label: "typhoon-stache+checkin", extra: msgExtra},
		// Custom update protocol.
		{pt: Point{Cfg: mcfg, System: SysUpdate, EM3D: &ecfg}, label: "typhoon-update", extra: msgExtra},
	}
	return runAblation(sp, aps)
}

// AblationMigratory measures the migratory-sharing optimisation (a
// user-level protocol-policy extension, off by default) on MP3D, whose
// scattered read-modify-writes are the pattern it targets. mig=false
// drops the key field — the plain run shares its entry with any other
// Stache/mp3d sweep at this configuration.
func AblationMigratory(scale Scale, sp SimParams) ([]AblationRow, error) {
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
	return runAblation(sp, aps)
}

// AblationSoftwareTempest runs the same benchmark and the same
// unmodified Stache library on Typhoon and on the software Tempest
// implementation (the paper's announced "native version for existing
// machines", later published as Blizzard), quantifying what Typhoon's
// custom hardware buys.
func AblationSoftwareTempest(scale Scale, sp SimParams) ([]AblationRow, error) {
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
	return runAblation(sp, aps)
}
