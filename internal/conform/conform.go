// Package conform is the trace-replay conformance suite: the repo's
// safety net for changes that mutate the message layer underneath every
// protocol (contention models, scheduler reworks, optimistic windows).
//
// It has three legs:
//
//   - A committed corpus (testdata/traces/ at the repo root): one
//     recorded message trace per protocol × application pair at a small
//     deterministic scale, in a stable text format (see Stream) with a
//     sha256 manifest. Recording runs the real machine with the
//     network-level taps on (network.Network.OnSend, agent.Core.
//     OnDispatch), so a trace holds the complete message stream — every
//     send with its issue time and delay, every dispatch with its start
//     time and service cycles — plus the run's application-visible
//     outcome (counters, observation hashes, memory and protocol-state
//     digests) in the footer.
//
//   - A standalone replay engine (Replay): the recorded sends are
//     re-issued into a fresh engine + network + one agent.Core per node
//     — no machine, no CPUs, no protocol state — with a scripted
//     dispatcher that charges each dispatch its recorded service time.
//     The network and agent layers then recompute the delivery schedule
//     from scratch, and Replay asserts it against the recording: the
//     arrival schedule (every packet's delivery cycle and identity at
//     every endpoint, injection- and ejection-port serialisation
//     included) cycle-exact for every protocol; per-virtual-network
//     dispatch order and identity always; and dispatch start times plus
//     occupancy counters cycle-exact for DirNNB traces, whose pure
//     message-driven agent has its whole timeline determined by the
//     message stream. (An NP interleaves urgent fault work between
//     dispatches, which a message trace does not capture, so NP
//     dispatch timing is enforced by Record comparison instead — a
//     full-machine re-run compared byte for byte.)
//
//   - A differential matrix (harness.RunObserved / CompareObservations)
//     plus the trace-order MSI transition checker (CheckTagMachine),
//     asserting that every protocol exposes identical application-
//     visible memory semantics and that every per-block tag history is
//     a legal walk of the MSI/update state machine.
//
// The corpus-refresh policy mirrors the golden convention: a deliberate
// behaviour change re-records with `go run ./cmd/conform -record
// -update` and commits the diff; `cmd/conform -record` without -update
// fails on any divergence.
package conform

import (
	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
)

// DiffApps lists the applications the differential matrix runs.
func DiffApps() []string { return harness.DiffApps }

// Pair is one corpus entry: an application × system combination, at the
// committed tiny scale, optionally under the contention model.
type Pair struct {
	App    string
	System harness.System
	// Contended selects the finite-bandwidth, nonzero-occupancy
	// configuration; the default is the ideal network every pinned
	// golden assumes.
	Contended bool
}

// Name is the corpus file stem, e.g. "em3d-typhoon-stache" or
// "ocean-dirnnb-contended".
func (p Pair) Name() string {
	n := p.App + "-" + string(p.System)
	if p.Contended {
		n += "-contended"
	}
	return n
}

// Contention-model parameters of the contended corpus entries: link
// bandwidth low enough that multi-block transfers queue at the ports,
// occupancy high enough that hot homes make dispatches wait.
const (
	ContendedLinkBW    = 4
	ContendedOccupancy = 20
)

// Config returns the machine configuration a pair records under: the
// Table 2 machine shrunk to 4 nodes with 8 KB caches, so the tiny
// workloads still miss, invalidate, and write back on every node while
// a recorded trace stays well under the tracer cap.
func (p Pair) Config() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	cfg.CacheSize = 8 << 10
	if p.Contended {
		cfg.LinkBytesPerCycle = ContendedLinkBW
		cfg.OccupancyCycles = ContendedOccupancy
	}
	return cfg
}

// Point is the sweep point a pair records and diffs: Config running the
// committed tiny workload — big enough to
// exercise misses, invalidations, writebacks, and update traffic on
// every node, small enough that a recorded trace stays a few hundred
// kilobytes.
func (p Pair) Point() harness.Point {
	pt := harness.Point{Cfg: p.Config(), System: p.System, Bench: p.App}
	switch p.App {
	case "em3d":
		c := em3d.Tiny()
		pt.EM3D = &c
	case "ocean":
		c := ocean.Tiny()
		pt.Ocean = &c
	}
	return pt
}

// CorpusPairs lists the committed corpus: every protocol × app pair of
// the differential matrix under the ideal network, plus one hardware
// and one user-level protocol re-recorded under contention (the
// configuration the replay's occupancy cross-check exercises).
func CorpusPairs() []Pair {
	var out []Pair
	for _, app := range harness.DiffApps {
		for _, sys := range harness.DiffSystemsFor(app) {
			out = append(out, Pair{App: app, System: sys})
		}
	}
	out = append(out,
		Pair{App: "em3d", System: harness.SysDirNNB, Contended: true},
		Pair{App: "em3d", System: harness.SysStache, Contended: true},
	)
	return out
}
