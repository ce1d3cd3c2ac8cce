// Package blizzard builds the software Tempest implementation the
// paper's §2 announces ("Tempest can also be implemented in software for
// existing machines. We are currently investigating a 'native' version
// for the CM-5") — the line of work published afterwards as Blizzard.
//
// The same Tempest interface and the same unmodified protocol libraries
// (Stache, custom protocols) run on a machine with no network-interface
// processor: fine-grain access control is synthesised by inline checks
// before every shared reference (Blizzard-S's binary rewriting), and
// protocol handlers execute on the node's main processor, stealing
// compute cycles and paying an interrupt-style dispatch cost. This is
// the portability claim of §2 made concrete — and the comparison against
// Typhoon quantifies what the custom hardware buys.
package blizzard

import (
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// Default software-Tempest costs. CheckOverhead models the inline
// tag-test sequence a binary rewriter inserts before each shared load or
// store; DispatchOverhead models trap/poll entry and exit on a commodity
// processor, versus Typhoon's hardware-assisted dispatch.
const (
	DefaultCheckOverhead    sim.Time = 3
	DefaultDispatchOverhead sim.Time = 50
)

// Config tunes the software implementation's costs; zero values select
// the defaults.
type Config = typhoon.SoftwareConfig

// New attaches a software Tempest system running the given (unmodified)
// protocol to m.
func New(m *machine.Machine, proto typhoon.Protocol, cfg Config) *typhoon.System {
	if cfg.CheckOverhead == 0 {
		cfg.CheckOverhead = DefaultCheckOverhead
	}
	if cfg.DispatchOverhead == 0 {
		cfg.DispatchOverhead = DefaultDispatchOverhead
	}
	return typhoon.NewSoftware(m, proto, cfg)
}

// NewStache attaches a software Tempest system running Stache — the
// Blizzard configuration the differential and conformance suites compare
// against Typhoon-Stache and DirNNB. Returning the protocol as well lets
// callers reach its invariant checks and state digest.
func NewStache(m *machine.Machine, cfg Config) (*typhoon.System, *stache.Protocol) {
	st := stache.New()
	return New(m, st, cfg), st
}
