// Package mp3d implements the MP3D benchmark from the SPLASH suite
// (Table 3: 10,000 molecules small, 50,000 large) as a
// faithful-in-spirit kernel: a rarefied-fluid wind-tunnel simulation in
// which particles stream through a three-dimensional grid of space
// cells. Particles are distributed across processors; every step each
// processor moves its particles (local reads and writes) and scatters
// statistics into the space-cell array, whose cells are touched by
// whichever processors' particles currently occupy them. That scattered
// read-modify-write traffic on the space array is MP3D's signature
// coherence load (and, as in the original, the cell counters are updated
// without locks — they are statistics, not inputs to the trajectories).
package mp3d

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
)

// Config describes one MP3D instance.
type Config struct {
	// Mols is the total particle count (Table 3: 10,000 / 50,000).
	Mols int
	// Cells is the space-array dimension (Cells^3 cells).
	Cells int
	// Steps is the number of time steps.
	Steps int
	// Seed drives the initial particle distribution.
	Seed uint64
}

// Small returns the Table 3 small data set.
func Small() Config { return Config{Mols: 10000, Cells: 12, Steps: 4, Seed: 1} }

// Large returns the Table 3 large data set.
func Large() Config { return Config{Mols: 50000, Cells: 16, Steps: 4, Seed: 1} }

// Tiny returns a reduced instance for tests.
func Tiny() Config { return Config{Mols: 400, Cells: 6, Steps: 3, Seed: 1} }

// Particle layout: x, y, z, vx, vy, vz (six float64 = 48 bytes, padded
// to 64 so two particles share no coherence block... they do at 32-byte
// blocks, which is exactly the original's false-sharing behaviour; keep
// 48 bytes).
const partWords = 6

// Cell layout: hit count plus three momentum sums (32 bytes = one
// coherence block per cell).
const cellWords = 4

// App is the MP3D program.
type App struct {
	cfg   Config
	nodes int
	per   int
	parts *apps.DistArray
	cells *apps.DistArray
	inits [][partWords]float64 // per particle: initial state, Go-side
	space float64              // domain size
}

// New returns an MP3D instance.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements apps.App.
func (a *App) Name() string { return "mp3d" }

// Config returns the instance configuration.
func (a *App) Config() Config { return a.cfg }

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine) {
	a.nodes = m.Cfg.Nodes
	a.per = apps.CeilDiv(a.cfg.Mols, a.nodes)
	a.space = float64(a.cfg.Cells)
	a.parts = apps.NewDistArrayNaive(m, "mp3d.parts", a.per*partWords, 8, 0)
	// The space array is deliberately spread round-robin across homes:
	// particles wander, so cell ownership has no stable node affinity.
	perProcCells := apps.CeilDiv(a.cfg.Cells*a.cfg.Cells*a.cfg.Cells, a.nodes)
	a.cells = apps.NewDistArrayNaive(m, "mp3d.cells", perProcCells*cellWords, 8, 0)

	rng := apps.NewRand(a.cfg.Seed)
	a.inits = make([][partWords]float64, a.nodes*a.per)
	for i := range a.inits {
		a.inits[i] = [partWords]float64{
			rng.Float64() * a.space,
			rng.Float64() * a.space,
			rng.Float64() * a.space,
			(rng.Float64() - 0.3) * 0.9, // drift along +x: the wind tunnel
			(rng.Float64() - 0.5) * 0.4,
			(rng.Float64() - 0.5) * 0.4,
		}
	}
}

func (a *App) partAt(proc, k, w int) mem.VA { return a.parts.At(proc, k*partWords+w) }

func (a *App) cellAt(idx, w int) mem.VA { return a.cells.AtGlobal(idx*cellWords + w) }

func (a *App) cellIndex(x, y, z float64) int {
	cx, cy, cz := int(x), int(y), int(z)
	n := a.cfg.Cells
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= n {
			return n - 1
		}
		return v
	}
	return (clamp(cz)*n+clamp(cy))*n + clamp(cx)
}

func (a *App) initKernel(io apps.MemIO, proc int) {
	for k := 0; k < a.per; k++ {
		st := &a.inits[proc*a.per+k]
		for w := range st {
			io.WriteF64(a.partAt(proc, k, w), st[w])
		}
	}
}

// moveKernel advances the owner's particles one step: load state, move,
// reflect at the walls (re-injecting at the inlet when a particle leaves
// the outlet), and scatter a sample into the occupied space cell.
func (a *App) moveKernel(io apps.MemIO, proc int) {
	for k := 0; k < a.per; k++ {
		var s [partWords]float64
		for w := 0; w < partWords; w++ {
			s[w] = io.ReadF64(a.partAt(proc, k, w))
		}
		// Advection, wall tests, and cell-index arithmetic: the original
		// spends dozens of instructions per molecule per step.
		io.Compute(30)
		for d := 0; d < 3; d++ {
			s[d] += s[3+d]
			// Reflecting walls in y and z; streamwise wraparound in x.
			if d == 0 {
				if s[0] >= a.space {
					s[0] -= a.space
				}
				if s[0] < 0 {
					s[0] += a.space
				}
			} else if s[d] < 0 || s[d] >= a.space {
				s[3+d] = -s[3+d]
				if s[d] < 0 {
					s[d] = -s[d]
				} else {
					s[d] = 2*a.space - s[d]
					if s[d] >= a.space {
						s[d] = a.space - 1e-9
					}
				}
			}
		}
		for w := 0; w < partWords; w++ {
			io.WriteF64(a.partAt(proc, k, w), s[w])
		}
		// Scatter statistics into the space cell (unsynchronised
		// read-modify-write, as in the original).
		ci := a.cellIndex(s[0], s[1], s[2])
		io.WriteU64(a.cellAt(ci, 0), io.ReadU64(a.cellAt(ci, 0))+1)
		for d := 0; d < 3; d++ {
			io.WriteF64(a.cellAt(ci, 1+d), io.ReadF64(a.cellAt(ci, 1+d))+s[3+d])
		}
		io.Compute(15) // collision-candidate bookkeeping

	}
}

// Body implements apps.App.
func (a *App) Body(p *machine.Proc) {
	a.initKernel(p, p.ID())
	p.Barrier()
	p.ROIStart()
	for s := 0; s < a.cfg.Steps; s++ {
		a.moveKernel(p, p.ID())
		p.Barrier()
	}
	p.ROIEnd()
}

// Verify implements apps.App: particle trajectories depend only on their
// own state and the walls, so they are replayed exactly; the racy cell
// statistics are checked only for plausibility (total hit count equals
// particles times steps is NOT guaranteed under lost updates, so the
// check is a bound).
func (a *App) Verify(m *machine.Machine) error {
	b := apps.NewBackdoor(m)
	for proc := 0; proc < a.nodes; proc++ {
		a.initKernel(b, proc)
	}
	for s := 0; s < a.cfg.Steps; s++ {
		for proc := 0; proc < a.nodes; proc++ {
			a.moveKernel(b, proc)
		}
	}
	for proc := 0; proc < a.nodes; proc++ {
		for k := 0; k < a.per; k++ {
			for w := 0; w < partWords; w++ {
				if err := b.Expect(a.partAt(proc, k, w), "mp3d particle %d.%d word %d", proc, k, w); err != nil {
					return err
				}
			}
		}
	}
	// Cell hit counts: each is at most the replayed count (lost updates
	// only lose increments) and the total is positive.
	var total uint64
	n3 := a.cfg.Cells * a.cfg.Cells * a.cfg.Cells
	for ci := 0; ci < n3; ci++ {
		got := apps.ReadBackU64(m, a.cellAt(ci, 0))
		want := b.ReadU64(a.cellAt(ci, 0))
		if got > want {
			return fmt.Errorf("mp3d cell %d count %d exceeds replayed %d", ci, got, want)
		}
		total += got
	}
	if total == 0 {
		return fmt.Errorf("mp3d: no cell samples recorded")
	}
	return nil
}
