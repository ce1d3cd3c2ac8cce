// Package appbt implements the NAS Appbt benchmark (Table 3: 12x12x12
// small, 24x24x24 large) as a faithful-in-spirit kernel: repeated
// line sweeps over a three-dimensional grid of 5-element solution
// vectors (the original solves 5x5 block-tridiagonal systems along each
// dimension). Cells are distributed as contiguous runs of (y,z) columns,
// so the x sweep is entirely local while the y and z sweeps read
// neighbour cells across column — and therefore processor — boundaries.
// Sweeps read the previous sweep's values (Jacobi-style), which keeps
// the synchronisation to one barrier per sweep while preserving the
// communication pattern of the original's boundary exchanges.
package appbt

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
)

// Comp is the number of solution components per grid cell (the 5x5
// block size of the original).
const Comp = 5

// Config describes one Appbt instance.
type Config struct {
	// N is the grid dimension (Table 3: 12 small, 24 large).
	N int
	// Iters is the number of full x+y+z sweep rounds.
	Iters int
}

// Small returns the Table 3 small data set.
func Small() Config { return Config{N: 12, Iters: 3} }

// Large returns the Table 3 large data set.
func Large() Config { return Config{N: 24, Iters: 3} }

// Tiny returns a reduced instance for tests.
func Tiny() Config { return Config{N: 6, Iters: 2} }

// App is the Appbt program.
type App struct {
	cfg     Config
	nodes   int
	colsPer int // (y,z) columns per processor
	// Two copies of the solution, ping-ponged between sweeps so each
	// sweep reads the previous sweep's values everywhere (Jacobi).
	u [2]*apps.DistArray
}

// New returns an Appbt instance.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements apps.App.
func (a *App) Name() string { return "appbt" }

// Config returns the instance configuration.
func (a *App) Config() Config { return a.cfg }

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine) {
	a.nodes = m.Cfg.Nodes
	cols := a.cfg.N * a.cfg.N
	a.colsPer = apps.CeilDiv(cols, a.nodes)
	for g := 0; g < 2; g++ {
		a.u[g] = apps.NewDistArrayNaive(m, fmt.Sprintf("appbt.u%d", g), a.colsPer*a.cfg.N*Comp, 8, 0)
	}
}

// at returns the address of component c of cell (x, y, z) in copy g:
// column z*N+y, whose N cells of Comp components are consecutive. A
// processor's chunk holds colsPer whole columns, so the global index
// lands on the chunk and offset the column's owner lays it out at.
func (a *App) at(g, x, y, z, c int) mem.VA {
	return a.u[g].AtGlobal(((z*a.cfg.N+y)*a.cfg.N+x)*Comp + c)
}

// ownerCols returns the half-open column range owned by proc.
func (a *App) ownerCols(proc int) (lo, hi int) {
	lo = proc * a.colsPer
	hi = lo + a.colsPer
	if max := a.cfg.N * a.cfg.N; hi > max {
		hi = max
	}
	if max := a.cfg.N * a.cfg.N; lo > max {
		lo = max
	}
	return lo, hi
}

func initCell(x, y, z, c int) float64 {
	return 1.0 + float64((x*7+y*13+z*29+c*3)%64)/8.0
}

func (a *App) initKernel(io apps.MemIO, proc int) {
	lo, hi := a.ownerCols(proc)
	for col := lo; col < hi; col++ {
		y, z := col%a.cfg.N, col/a.cfg.N
		for x := 0; x < a.cfg.N; x++ {
			for c := 0; c < Comp; c++ {
				v := initCell(x, y, z, c)
				io.WriteF64(a.at(0, x, y, z, c), v)
				io.WriteF64(a.at(1, x, y, z, c), v)
			}
		}
	}
}

// sweepKernel performs one directional relaxation from copy src into
// copy 1-src: every interior cell mixes its vector with the previous
// cell's along the sweep axis through a small dense coupling (standing
// in for the 5x5 block solve). dim: 0=x (local), 1=y, 2=z (both cross
// processor boundaries). Boundary cells are copied through unchanged.
func (a *App) sweepKernel(io apps.MemIO, proc, dim, src int) {
	N := a.cfg.N
	dst := 1 - src
	lo, hi := a.ownerCols(proc)
	var prev, cur [Comp]float64
	for col := lo; col < hi; col++ {
		y, z := col%N, col/N
		for x := 0; x < N; x++ {
			px, py, pz := x, y, z
			switch dim {
			case 0:
				px = x - 1
			case 1:
				py = y - 1
			default:
				pz = z - 1
			}
			if px < 0 || py < 0 || pz < 0 {
				for c := 0; c < Comp; c++ {
					io.WriteF64(a.at(dst, x, y, z, c), io.ReadF64(a.at(src, x, y, z, c)))
				}
				continue
			}
			for c := 0; c < Comp; c++ {
				prev[c] = io.ReadF64(a.at(src, px, py, pz, c))
				cur[c] = io.ReadF64(a.at(src, x, y, z, c))
			}
			// Dense 5x5 coupling: each output component mixes every
			// input component (50 multiply-adds, the block-solve work).
			io.Compute(2 * Comp * Comp)
			for c := 0; c < Comp; c++ {
				v := 0.55 * cur[c]
				for k := 0; k < Comp; k++ {
					v += 0.04 * prev[k]
					v += 0.05 * cur[(c+k)%Comp] * 0.5
				}
				io.WriteF64(a.at(dst, x, y, z, c), v)
			}
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
		for dim := 0; dim < 3; dim++ {
			a.sweepKernel(p, p.ID(), dim, src)
			p.Barrier()
			src = 1 - src
		}
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
		for dim := 0; dim < 3; dim++ {
			for proc := 0; proc < a.nodes; proc++ {
				a.sweepKernel(b, proc, dim, src)
			}
			src = 1 - src
		}
	}
	N := a.cfg.N
	for z := 0; z < N; z++ {
		for y := 0; y < N; y++ {
			for x := 0; x < N; x++ {
				for c := 0; c < Comp; c++ {
					if err := b.Expect(a.at(src, x, y, z, c), "appbt u[%d][%d][%d].%d", x, y, z, c); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
