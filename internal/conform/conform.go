// Package conform is the conformance suite: the repo's safety net for
// changes that mutate the message layer underneath every protocol
// (contention models, scheduler reworks) or one protocol's handlers.
//
// It has two legs:
//
//   - Record: a committed corpus (testdata/traces/ at the repo root)
//     holds one recorded message trace per corpus pair at a small
//     deterministic scale, in a stable text format (see Stream).
//     Recording runs the real machine with a tracer on its network
//     (network.Network.Tracer, the one recorder every system emits
//     into), so a trace holds the complete message stream — every send
//     with its issue time and delay, every arrival, every dispatch with
//     its start time and service cycles — plus the run's
//     application-visible outcome (counters, observation hashes, memory
//     and protocol-state digests) in the footer. The corpus is a golden file: the package
//     tests re-record every pair, run the MSI transition checker
//     (CheckTagMachine) over the fresh stream, and compare its encoding
//     with the committed file byte for byte.
//
//   - Differential: a matrix (RunDifferential, over harness.RunObserved
//     and CompareObservations) asserting that every protocol exposes
//     identical application-visible memory semantics.
//
// A deliberate behaviour change re-records with
// `go test ./internal/conform -run TestReRecordMatchesCorpus -update`
// and commits the diff, which shows exactly which messages moved.
package conform

import (
	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
)

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
// and one user-level protocol re-recorded under contention (port
// queueing and agent occupancy, which the ideal network never exercises).
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
