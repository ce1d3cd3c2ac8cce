// Package barnes implements the Barnes benchmark from the SPLASH suite
// (Table 3: 2048 bodies small, 8192 large): a gravitational N-body
// simulation using the Barnes-Hut octree. Each iteration node 0 rebuilds
// the octree in shared memory from all body positions (scattered remote
// reads and writes — the dynamic, pointer-based structure the paper's
// §2.3 motivates); then every processor computes forces for its own
// bodies by traversing the tree (wide read-only sharing of tree cells)
// and integrates them (owner-local writes). The force phase reads only
// tree cells — leaf cells carry the body's mass moments — so no barrier
// is needed between force and update.
package barnes

import (
	"math"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
)

// theta is the opening criterion: a cell is used whole when
// size < theta * distance. It is typed so theta*theta rounds as the
// float64 product does at run time.
const theta float64 = 0.7

// Config describes one Barnes instance.
type Config struct {
	// Bodies is the body count (Table 3: 2048 / 8192).
	Bodies int
	// Iters is the number of time steps.
	Iters int
	// Seed drives the initial distribution.
	Seed uint64
}

// Small returns the Table 3 small data set.
func Small() Config { return Config{Bodies: 2048, Iters: 2, Seed: 1} }

// Large returns the Table 3 large data set.
func Large() Config { return Config{Bodies: 8192, Iters: 2, Seed: 1} }

// Tiny returns a reduced instance for tests.
func Tiny() Config { return Config{Bodies: 64, Iters: 2, Seed: 1} }

// Body record layout (8 words): x, y, z, vx, vy, vz, mass, pad.
const bodyWords = 8

// Tree-cell record layout (24 words):
//
//	0 kind (0 free, 1 leaf, 2 internal)   1 body index (leaf)
//	2 mass sum                            3..5 mass-weighted position sums
//	6 cell size                           7..9 cell centre
//	10..17 children indices               18..23 reserved
const (
	cellWords  = 24
	wKind      = 0
	wBody      = 1
	wMass      = 2
	wWX        = 3
	wSize      = 6
	wCX        = 7
	wChild     = 10
	kindFree   = 0
	kindLeaf   = 1
	kindIntern = 2
	maxDepth   = 40
)

// domain is the simulation cube edge length.
const domain = 16.0

// App is the Barnes program.
type App struct {
	cfg   Config
	nodes int
	per   int

	bodies *apps.DistArray
	cells  *apps.DistArray
	inits  [][7]float64
}

// New returns a Barnes instance.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements apps.App.
func (a *App) Name() string { return "barnes" }

// Config returns the instance configuration.
func (a *App) Config() Config { return a.cfg }

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine) {
	a.nodes = m.Cfg.Nodes
	a.per = apps.CeilDiv(a.cfg.Bodies, a.nodes)
	a.bodies = apps.NewDistArrayNaive(m, "barnes.bodies", a.per*bodyWords, 8, 0)
	// The tree pool is spread round-robin: tree cells have no stable
	// node affinity, exactly the transparent-replication case the paper
	// motivates with Barnes-Hut.
	maxCells := 4*a.per*a.nodes + 64
	perProcCells := apps.CeilDiv(maxCells, a.nodes)
	a.cells = apps.NewDistArrayNaive(m, "barnes.cells", perProcCells*cellWords, 8, 0)

	rng := apps.NewRand(a.cfg.Seed)
	a.inits = make([][7]float64, a.per*a.nodes)
	for i := range a.inits {
		a.inits[i] = [7]float64{
			rng.Float64()*domain*0.9 + 0.05*domain,
			rng.Float64()*domain*0.9 + 0.05*domain,
			rng.Float64()*domain*0.9 + 0.05*domain,
			(rng.Float64() - 0.5) * 0.02,
			(rng.Float64() - 0.5) * 0.02,
			(rng.Float64() - 0.5) * 0.02,
			0.5 + rng.Float64(),
		}
	}
}

// bodyAt returns the address of word w of body global. A processor's
// chunk holds per whole body records, so the global word index lands on
// the chunk and offset the body's owner lays it out at.
func (a *App) bodyAt(global, w int) mem.VA {
	return a.bodies.AtGlobal(global*bodyWords + w)
}

func (a *App) cellAt(idx, w int) mem.VA {
	return a.cells.AtGlobal(idx*cellWords + w)
}

func (a *App) initKernel(io apps.MemIO, proc int) {
	for k := 0; k < a.per; k++ {
		g := proc*a.per + k
		for w := 0; w < 7; w++ {
			io.WriteF64(a.bodyAt(g, w), a.inits[g][w])
		}
	}
}

// allocCell claims the next pool slot and zeroes its header and children.
func (a *App) allocCell(io apps.MemIO, next *int) int {
	idx := *next
	*next++
	io.WriteU64(a.cellAt(idx, wKind), kindFree)
	for c := 0; c < 8; c++ {
		io.WriteU64(a.cellAt(idx, wChild+c), 0)
	}
	io.Compute(4)
	return idx
}

func (a *App) makeLeaf(io apps.MemIO, idx, body int, x, y, z, m float64) {
	io.WriteU64(a.cellAt(idx, wKind), kindLeaf)
	io.WriteU64(a.cellAt(idx, wBody), uint64(body))
	io.WriteF64(a.cellAt(idx, wMass), m)
	io.WriteF64(a.cellAt(idx, wWX), m*x)
	io.WriteF64(a.cellAt(idx, wWX+1), m*y)
	io.WriteF64(a.cellAt(idx, wWX+2), m*z)
	io.Compute(8)
}

// octant returns which child cube of (cx,cy,cz) contains (x,y,z).
func octant(cx, cy, cz, x, y, z float64) int {
	o := 0
	if x >= cx {
		o |= 1
	}
	if y >= cy {
		o |= 2
	}
	if z >= cz {
		o |= 4
	}
	return o
}

func childCenter(cx, cy, cz, half float64, o int) (float64, float64, float64) {
	q := half / 2
	if o&1 != 0 {
		cx += q
	} else {
		cx -= q
	}
	if o&2 != 0 {
		cy += q
	} else {
		cy -= q
	}
	if o&4 != 0 {
		cz += q
	} else {
		cz -= q
	}
	return cx, cy, cz
}

// buildKernel rebuilds the octree from scratch (run by processor 0, as a
// sequential phase of each iteration). It returns the root cell index.
func (a *App) buildKernel(io apps.MemIO, next *int) int {
	*next = 1 // index 0 is the null child
	root := a.allocCell(io, next)
	io.WriteU64(a.cellAt(root, wKind), kindIntern)
	io.WriteF64(a.cellAt(root, wMass), 0)
	io.WriteF64(a.cellAt(root, wWX), 0)
	io.WriteF64(a.cellAt(root, wWX+1), 0)
	io.WriteF64(a.cellAt(root, wWX+2), 0)
	io.WriteF64(a.cellAt(root, wSize), domain)
	io.WriteF64(a.cellAt(root, wCX), domain/2)
	io.WriteF64(a.cellAt(root, wCX+1), domain/2)
	io.WriteF64(a.cellAt(root, wCX+2), domain/2)

	total := a.per * a.nodes
	for g := 0; g < total; g++ {
		x := io.ReadF64(a.bodyAt(g, 0))
		y := io.ReadF64(a.bodyAt(g, 1))
		z := io.ReadF64(a.bodyAt(g, 2))
		m := io.ReadF64(a.bodyAt(g, 6))
		a.insert(io, next, root, g, x, y, z, m)
	}
	return root
}

func (a *App) insert(io apps.MemIO, next *int, root, body int, x, y, z, m float64) {
	cur := root
	for depth := 0; ; depth++ {
		// Accumulate this body's moments on the path.
		io.WriteF64(a.cellAt(cur, wMass), io.ReadF64(a.cellAt(cur, wMass))+m)
		io.WriteF64(a.cellAt(cur, wWX), io.ReadF64(a.cellAt(cur, wWX))+m*x)
		io.WriteF64(a.cellAt(cur, wWX+1), io.ReadF64(a.cellAt(cur, wWX+1))+m*y)
		io.WriteF64(a.cellAt(cur, wWX+2), io.ReadF64(a.cellAt(cur, wWX+2))+m*z)
		io.Compute(8)
		if depth >= maxDepth {
			// Coincident bodies: moments are accounted, the body is
			// folded into this cell rather than splitting forever.
			return
		}
		cx := io.ReadF64(a.cellAt(cur, wCX))
		cy := io.ReadF64(a.cellAt(cur, wCX+1))
		cz := io.ReadF64(a.cellAt(cur, wCX+2))
		size := io.ReadF64(a.cellAt(cur, wSize))
		o := octant(cx, cy, cz, x, y, z)
		io.Compute(6)
		child := int(io.ReadU64(a.cellAt(cur, wChild+o)))
		if child == 0 {
			leaf := a.allocCell(io, next)
			a.makeLeaf(io, leaf, body, x, y, z, m)
			io.WriteU64(a.cellAt(cur, wChild+o), uint64(leaf))
			return
		}
		if kind := io.ReadU64(a.cellAt(child, wKind)); kind == kindLeaf {
			// Split: replace the leaf with an internal cell and
			// reinsert the displaced body below it.
			ob := int(io.ReadU64(a.cellAt(child, wBody)))
			om := io.ReadF64(a.cellAt(child, wMass))
			ox := io.ReadF64(a.cellAt(child, wWX)) / om
			oy := io.ReadF64(a.cellAt(child, wWX+1)) / om
			oz := io.ReadF64(a.cellAt(child, wWX+2)) / om
			inner := a.allocCell(io, next)
			ncx, ncy, ncz := childCenter(cx, cy, cz, size/2, o)
			io.WriteU64(a.cellAt(inner, wKind), kindIntern)
			io.WriteF64(a.cellAt(inner, wMass), 0)
			io.WriteF64(a.cellAt(inner, wWX), 0)
			io.WriteF64(a.cellAt(inner, wWX+1), 0)
			io.WriteF64(a.cellAt(inner, wWX+2), 0)
			io.WriteF64(a.cellAt(inner, wSize), size/2)
			io.WriteF64(a.cellAt(inner, wCX), ncx)
			io.WriteF64(a.cellAt(inner, wCX+1), ncy)
			io.WriteF64(a.cellAt(inner, wCX+2), ncz)
			io.WriteU64(a.cellAt(cur, wChild+o), uint64(inner))
			io.Compute(12)
			a.insert(io, next, inner, ob, ox, oy, oz, om)
			// Continue inserting the new body from the fresh cell.
			cur = inner
			continue
		}
		cur = child
	}
}

// forceKernel computes and integrates forces for the owner's bodies by
// traversing the shared tree. Leaf cells carry the interacting body's
// moments, so the phase reads tree cells only.
func (a *App) forceKernel(io apps.MemIO, proc, root int) {
	const dt = 0.05
	const eps2 = 0.05
	theta2 := theta * theta
	stack := make([]int, 0, 64)
	for k := 0; k < a.per; k++ {
		g := proc*a.per + k
		x := io.ReadF64(a.bodyAt(g, 0))
		y := io.ReadF64(a.bodyAt(g, 1))
		z := io.ReadF64(a.bodyAt(g, 2))
		var ax, ay, az float64
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			kind := io.ReadU64(a.cellAt(n, wKind))
			ms := io.ReadF64(a.cellAt(n, wMass))
			if ms == 0 {
				continue
			}
			px := io.ReadF64(a.cellAt(n, wWX)) / ms
			py := io.ReadF64(a.cellAt(n, wWX+1)) / ms
			pz := io.ReadF64(a.cellAt(n, wWX+2)) / ms
			dx, dy, dz := px-x, py-y, pz-z
			d2 := dx*dx + dy*dy + dz*dz + eps2
			io.Compute(12)
			if kind == kindLeaf {
				if int(io.ReadU64(a.cellAt(n, wBody))) == g {
					continue
				}
			} else {
				size := io.ReadF64(a.cellAt(n, wSize))
				if size*size >= theta2*d2 {
					// Too close: open the cell.
					for c := 0; c < 8; c++ {
						if ch := io.ReadU64(a.cellAt(n, wChild+c)); ch != 0 {
							stack = append(stack, int(ch))
						}
					}
					io.Compute(8)
					continue
				}
			}
			inv := 1 / (d2 * math.Sqrt(d2))
			ax += ms * dx * inv
			ay += ms * dy * inv
			az += ms * dz * inv
			io.Compute(15)
		}
		// Integrate (leapfrog-ish Euler step) and keep bodies in the box.
		vx := io.ReadF64(a.bodyAt(g, 3)) + ax*dt
		vy := io.ReadF64(a.bodyAt(g, 4)) + ay*dt
		vz := io.ReadF64(a.bodyAt(g, 5)) + az*dt
		x, vx = bounce(x+vx*dt, vx)
		y, vy = bounce(y+vy*dt, vy)
		z, vz = bounce(z+vz*dt, vz)
		io.WriteF64(a.bodyAt(g, 0), x)
		io.WriteF64(a.bodyAt(g, 1), y)
		io.WriteF64(a.bodyAt(g, 2), z)
		io.WriteF64(a.bodyAt(g, 3), vx)
		io.WriteF64(a.bodyAt(g, 4), vy)
		io.WriteF64(a.bodyAt(g, 5), vz)
		io.Compute(18)
	}
}

func bounce(p, v float64) (float64, float64) {
	if p < 0 {
		return -p, -v
	}
	if p >= domain {
		q := 2*domain - p
		if q >= domain {
			q = domain - 1e-9
		}
		return q, -v
	}
	return p, v
}

// Body implements apps.App.
func (a *App) Body(p *machine.Proc) {
	a.initKernel(p, p.ID())
	p.Barrier()
	p.ROIStart()
	var next int
	for it := 0; it < a.cfg.Iters; it++ {
		root := 1
		if p.ID() == 0 {
			root = a.buildKernel(p, &next)
		}
		p.Barrier()
		a.forceKernel(p, p.ID(), root)
		p.Barrier()
	}
	p.ROIEnd()
}

// Verify implements apps.App via backdoor replay.
func (a *App) Verify(m *machine.Machine) error {
	b := apps.NewBackdoor(m)
	for proc := 0; proc < a.nodes; proc++ {
		a.initKernel(b, proc)
	}
	var next int
	for it := 0; it < a.cfg.Iters; it++ {
		root := a.buildKernel(b, &next)
		for proc := 0; proc < a.nodes; proc++ {
			a.forceKernel(b, proc, root)
		}
	}
	for g := 0; g < a.per*a.nodes; g++ {
		for w := 0; w < 7; w++ {
			if err := b.Expect(a.bodyAt(g, w), "barnes body %d word %d", g, w); err != nil {
				return err
			}
		}
	}
	return nil
}
