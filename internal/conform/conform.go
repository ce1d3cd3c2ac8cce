// Package conform is the conformance suite: the repo's safety net for
// changes that mutate the message layer underneath every protocol
// (contention models, scheduler reworks) or one protocol's handlers.
//
// It has one recording per corpus pair and three checks over it:
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
//     and protocol-state digests) in the footer. The corpus is a golden
//     file: the package tests re-record every pair and compare its
//     encoding with the committed file byte for byte.
//
//   - Tag machine: CheckTagMachine walks each fresh stream's per-block
//     tag history against the MSI transition rules.
//
//   - Differential: CheckDifferential compares the fresh recordings of
//     one app across its systems, asserting that every protocol
//     exposes identical application-visible memory semantics: the same
//     per-processor observations and the same final shared memory.
//
// The tests simulate each pair once and run every check on that one
// recording.
//
// A deliberate behaviour change re-pins every fence with `make repin`,
// which re-records the corpus, and commits the diff: it shows exactly
// which messages moved.
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

// Point is the sweep point a pair records: Config running the
// committed tiny workload — big enough to exercise misses,
// invalidations, writebacks, and update traffic on every node, small
// enough that a recorded trace stays a few hundred kilobytes.
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
// the differential matrix under the ideal network — the hardware
// directory, Typhoon running Stache, the software Tempest (Blizzard)
// running the same unmodified Stache and, for em3d, the
// application-specific update protocol — plus one hardware and one
// user-level protocol re-recorded under contention (port queueing and
// agent occupancy, which the ideal network never exercises).
func CorpusPairs() []Pair {
	return []Pair{
		{App: "em3d", System: harness.SysDirNNB},
		{App: "em3d", System: harness.SysStache},
		{App: "em3d", System: harness.SysBlizzard},
		{App: "em3d", System: harness.SysUpdate},
		{App: "ocean", System: harness.SysDirNNB},
		{App: "ocean", System: harness.SysStache},
		{App: "ocean", System: harness.SysBlizzard},
		{App: "em3d", System: harness.SysDirNNB, Contended: true},
		{App: "em3d", System: harness.SysStache, Contended: true},
	}
}
