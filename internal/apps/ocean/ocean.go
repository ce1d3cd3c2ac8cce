// Package ocean implements the Ocean benchmark from the SPLASH suite
// (Table 3: 98x98 small, 386x386 large) as a faithful-in-spirit kernel:
// a hydrodynamic relaxation over a two-dimensional grid. Rows are
// distributed in contiguous bands (owner computes); each Jacobi sweep
// reads the four-point stencil — the rows adjacent to a band boundary
// are the communicated data, giving Ocean's nearest-neighbour sharing
// pattern.
package ocean

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
)

// Config describes one Ocean instance.
type Config struct {
	// N is the grid dimension (Table 3: 98 small, 386 large).
	N int
	// Iters is the number of relaxation sweeps.
	Iters int
	// OwnerPlaced homes each processor's band on that processor instead
	// of the default naive round-robin placement — the "careful data
	// placement" DirNNB improvement of paper §6, used by the placement
	// ablation.
	OwnerPlaced bool
}

// Small returns the Table 3 small data set.
func Small() Config { return Config{N: 98, Iters: 4} }

// Large returns the Table 3 large data set.
func Large() Config { return Config{N: 386, Iters: 4} }

// Tiny returns a reduced instance for tests.
func Tiny() Config { return Config{N: 22, Iters: 3} }

// App is the Ocean program.
type App struct {
	cfg     Config
	rowsPer int
	nodes   int
	// Two grids, ping-ponged between sweeps; both banded by rows.
	grids [2]*apps.DistArray
}

// New returns an Ocean instance.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements apps.App.
func (a *App) Name() string { return "ocean" }

// Config returns the instance configuration.
func (a *App) Config() Config { return a.cfg }

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine) {
	a.nodes = m.Cfg.Nodes
	a.rowsPer = apps.CeilDiv(a.cfg.N, a.nodes)
	for g := 0; g < 2; g++ {
		name := fmt.Sprintf("ocean.grid%d", g)
		if a.cfg.OwnerPlaced {
			a.grids[g] = apps.NewDistArray(m, name, a.rowsPer*a.cfg.N, 8, 0)
		} else {
			a.grids[g] = apps.NewDistArrayNaive(m, name, a.rowsPer*a.cfg.N, 8, 0)
		}
	}
}

// at returns the address of cell (i, j) in grid g. A processor's chunk
// holds rowsPer whole rows, so row-major global index i*N+j lands on
// the chunk and offset the row's owner lays it out at.
func (a *App) at(g, i, j int) mem.VA {
	return a.grids[g].AtGlobal(i*a.cfg.N + j)
}

// ownerRows returns the half-open row range owned by proc.
func (a *App) ownerRows(proc int) (lo, hi int) {
	lo = proc * a.rowsPer
	hi = lo + a.rowsPer
	if hi > a.cfg.N {
		hi = a.cfg.N
	}
	if lo > a.cfg.N {
		lo = a.cfg.N
	}
	return lo, hi
}

// initCell is the deterministic initial state.
func initCell(i, j int) float64 {
	return float64((i*131+j*17)%256)/32.0 + float64(i+j)/1000.0
}

// initKernel writes the owner's band into both grids.
func (a *App) initKernel(io apps.MemIO, proc int) {
	lo, hi := a.ownerRows(proc)
	for i := lo; i < hi; i++ {
		for j := 0; j < a.cfg.N; j++ {
			v := initCell(i, j)
			io.WriteF64(a.at(0, i, j), v)
			io.WriteF64(a.at(1, i, j), v)
		}
	}
}

// sweepKernel relaxes the owner's interior rows from grid src into grid
// dst: dst = 0.25*(up+down+left+right) + 0.05*self. Boundary cells are
// fixed.
func (a *App) sweepKernel(io apps.MemIO, proc, src int) {
	dst := 1 - src
	lo, hi := a.ownerRows(proc)
	for i := lo; i < hi; i++ {
		if i == 0 || i == a.cfg.N-1 {
			continue
		}
		for j := 1; j < a.cfg.N-1; j++ {
			up := io.ReadF64(a.at(src, i-1, j))
			down := io.ReadF64(a.at(src, i+1, j))
			left := io.ReadF64(a.at(src, i, j-1))
			right := io.ReadF64(a.at(src, i, j+1))
			self := io.ReadF64(a.at(src, i, j))
			io.Compute(6)
			io.WriteF64(a.at(dst, i, j), 0.25*(up+down+left+right)+0.05*self)
		}
	}
}

// Body implements apps.App.
func (a *App) Body(p *machine.Proc) {
	a.initKernel(p, p.ID())
	p.Barrier()
	p.ROIStart()
	src := 0
	for it := 0; it < a.cfg.Iters; it++ {
		a.sweepKernel(p, p.ID(), src)
		p.Barrier()
		src = 1 - src
	}
	p.ROIEnd()
}

// Verify implements apps.App via backdoor replay.
func (a *App) Verify(m *machine.Machine) error {
	b := apps.NewBackdoor(m)
	for proc := 0; proc < a.nodes; proc++ {
		a.initKernel(b, proc)
	}
	src := 0
	for it := 0; it < a.cfg.Iters; it++ {
		for proc := 0; proc < a.nodes; proc++ {
			a.sweepKernel(b, proc, src)
		}
		src = 1 - src
	}
	for i := 0; i < a.cfg.N; i++ {
		for j := 0; j < a.cfg.N; j++ {
			for g := 0; g < 2; g++ {
				if err := b.Expect(a.at(g, i, j), "ocean grid%d[%d][%d]", g, i, j); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
