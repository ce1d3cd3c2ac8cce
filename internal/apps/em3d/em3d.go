// Package em3d implements the paper's EM3D benchmark (§4): propagation of
// electromagnetic waves through a bipartite graph in which E nodes are
// recomputed from their H neighbours and vice versa, under the
// owner-computes rule. The graph is static; the fraction of edges that
// cross processor boundaries is the tunable parameter swept in the
// paper's Figure 4.
//
// The package provides both the transparent-shared-memory version
// (Program 1 of the paper, runnable on DirNNB and Typhoon/Stache) and
// the custom Typhoon delayed-update protocol of §4 (update.go).
package em3d

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
)

// Config describes one EM3D instance.
type Config struct {
	// TotalNodes is the total graph size, E plus H (Table 3: 64,000
	// small, 192,000 large).
	TotalNodes int
	// Degree is the number of neighbours per node (10 small, 15 large).
	Degree int
	// PctRemote is the percentage of edges whose target lives on a
	// different processor (Figure 4 sweeps 0-50).
	PctRemote int
	// RemoteReuse is how many remote edges share each distinct remote
	// target value on average (several local nodes read the same remote
	// neighbour in the original's clustered graphs); it is the number of
	// DISTINCT remote values — which grows linearly with the remote-edge
	// fraction at constant reuse — that drives communication. Zero
	// selects 3.
	RemoteReuse int
	// Iters is the number of relaxation iterations.
	Iters int
	// Seed drives graph construction.
	Seed uint64
}

// Small returns the Table 3 small data set.
func Small() Config {
	return Config{TotalNodes: 64000, Degree: 10, PctRemote: 20, Iters: 3, Seed: 1}
}

// Large returns the Table 3 large data set.
func Large() Config {
	return Config{TotalNodes: 192000, Degree: 15, PctRemote: 20, Iters: 3, Seed: 1}
}

// PerProc returns the E (and H) graph nodes each of nodes processors
// owns: half the graph split evenly, at least one.
func (c Config) PerProc(nodes int) int {
	return max(apps.CeilDiv(c.TotalNodes/2, nodes), 1)
}

// Tiny returns a reduced instance for tests.
func Tiny() Config {
	return Config{TotalNodes: 512, Degree: 4, PctRemote: 30, Iters: 3, Seed: 1}
}

// App is the shared-memory EM3D program.
type App struct {
	cfg     Config
	per     int // E (and H) nodes per processor
	valMode int // page mode for the value segments (0 = default protocol)

	eVals, hVals *apps.DistArray // one float64 per graph node
	eW, hW       *apps.DistArray // one float64 weight per edge

	// Adjacency, Go-side: for processor p, edge slot (k*Degree+d) of its
	// k-th local node targets the value address eAdj[p][...] (an H value
	// for the E phase and vice versa). The index form drives Verify.
	eAdj, hAdj       [][]mem.VA
	eAdjIdx, hAdjIdx [][]int32 // global target indices
	eWv, hWv         [][]float64

	nodes int
}

// New returns an EM3D instance.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements apps.App.
func (a *App) Name() string { return "em3d" }

// Config returns the instance configuration.
func (a *App) Config() Config { return a.cfg }

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine) {
	a.setup(m, 0)
}

// setup builds the graph with the given page mode for the value
// segments (the update protocol passes its custom mode).
func (a *App) setup(m *machine.Machine, valMode int) {
	P := m.Cfg.Nodes
	a.nodes = P
	a.valMode = valMode
	a.per = a.cfg.PerProc(P)
	a.eVals = apps.NewDistArray(m, "em3d.e", a.per, 8, valMode)
	a.hVals = apps.NewDistArray(m, "em3d.h", a.per, 8, valMode)
	a.eW = apps.NewDistArray(m, "em3d.ew", a.per*a.cfg.Degree, 8, 0)
	a.hW = apps.NewDistArray(m, "em3d.hw", a.per*a.cfg.Degree, 8, 0)

	rng := apps.NewRand(a.cfg.Seed)
	build := func(targets *apps.DistArray) ([][]mem.VA, [][]int32, [][]float64) {
		adj := make([][]mem.VA, P)
		idx := make([][]int32, P)
		wv := make([][]float64, P)
		reuse := a.cfg.RemoteReuse
		if reuse <= 0 {
			reuse = 3
		}
		for p := 0; p < P; p++ {
			adj[p] = make([]mem.VA, a.per*a.cfg.Degree)
			idx[p] = make([]int32, a.per*a.cfg.Degree)
			wv[p] = make([]float64, a.per*a.cfg.Degree)
			// Each processor's remote targets come from a pool of
			// distinct values on other processors, sized so each is
			// shared by ~reuse edges: the count of distinct remote
			// values — the quantity that drives communication — grows
			// linearly with the remote-edge fraction.
			expRemote := a.per * a.cfg.Degree * a.cfg.PctRemote / 100
			poolSize := expRemote / reuse
			if expRemote > 0 && poolSize == 0 {
				poolSize = 1
			}
			type tgt struct{ q, t int }
			pool := make([]tgt, poolSize)
			for i := range pool {
				q := rng.Intn(P - 1)
				if q >= p {
					q++
				}
				pool[i] = tgt{q: q, t: rng.Intn(a.per)}
			}
			for k := 0; k < a.per; k++ {
				for d := 0; d < a.cfg.Degree; d++ {
					q := p
					t := rng.Intn(a.per)
					if P > 1 && len(pool) > 0 && rng.Intn(100) < a.cfg.PctRemote {
						pick := pool[rng.Intn(len(pool))]
						q, t = pick.q, pick.t
					}
					slot := k*a.cfg.Degree + d
					adj[p][slot] = targets.At(q, t)
					idx[p][slot] = int32(q*a.per + t)
					wv[p][slot] = 0.001 + 0.01*rng.Float64()
				}
			}
		}
		return adj, idx, wv
	}
	a.eAdj, a.eAdjIdx, a.eWv = build(a.hVals) // E nodes read H values
	a.hAdj, a.hAdjIdx, a.hWv = build(a.eVals) // H nodes read E values
}

// initVal is the deterministic initial value of a graph node.
func initVal(kind, global int) float64 {
	return float64((global*37+kind*11)%1000)/16.0 + 1.0
}

// Body implements apps.App: Program 1 of the paper, plus the symmetric H
// phase, under the owner-computes rule with barrier separation.
func (a *App) Body(p *machine.Proc) {
	pid := p.ID()
	D := a.cfg.Degree

	// Initialise local values and weights (owner writes, home-local).
	for k := 0; k < a.per; k++ {
		p.WriteF64(a.eVals.At(pid, k), initVal(0, pid*a.per+k))
		p.WriteF64(a.hVals.At(pid, k), initVal(1, pid*a.per+k))
	}
	for s := 0; s < a.per*D; s++ {
		p.WriteF64(a.eW.At(pid, s), a.eWv[pid][s])
		p.WriteF64(a.hW.At(pid, s), a.hWv[pid][s])
	}
	p.Barrier()
	p.ROIStart()
	for it := 0; it < a.cfg.Iters; it++ {
		a.phase(p, a.eVals, a.eAdj[pid], a.eW)
		p.Barrier()
		a.phase(p, a.hVals, a.hAdj[pid], a.hW)
		p.Barrier()
	}
	p.ROIEnd()
}

// phase runs compute_E (or compute_H): for every local node, subtract
// the weighted sum of its neighbours' values.
func (a *App) phase(p *machine.Proc, vals *apps.DistArray, adj []mem.VA, w *apps.DistArray) {
	pid := p.ID()
	D := a.cfg.Degree
	for k := 0; k < a.per; k++ {
		v := p.ReadF64(vals.At(pid, k))
		base := k * D
		for d := 0; d < D; d++ {
			nv := p.ReadF64(adj[base+d])
			wt := p.ReadF64(w.At(pid, base+d))
			// Multiply + subtract plus the loop's index, pointer, and
			// branch instructions (Program 1 charges one cycle per
			// instruction, and the pointer chase is real work).
			p.Compute(6)
			v -= nv * wt
		}
		p.WriteF64(vals.At(pid, k), v)
	}
}

// Verify implements apps.App: it replays the computation sequentially in
// Go (identical operation order, so results are bit-exact) and compares
// every graph node value.
func (a *App) Verify(m *machine.Machine) error {
	P := a.nodes
	D := a.cfg.Degree
	e := make([]float64, P*a.per)
	h := make([]float64, P*a.per)
	for g := range e {
		e[g] = initVal(0, g)
		h[g] = initVal(1, g)
	}
	for it := 0; it < a.cfg.Iters; it++ {
		next := make([]float64, len(e))
		copy(next, e)
		for p := 0; p < P; p++ {
			for k := 0; k < a.per; k++ {
				v := next[p*a.per+k]
				for d := 0; d < D; d++ {
					slot := k*D + d
					v -= h[a.eAdjIdx[p][slot]] * a.eWv[p][slot]
				}
				next[p*a.per+k] = v
			}
		}
		e = next
		nextH := make([]float64, len(h))
		copy(nextH, h)
		for p := 0; p < P; p++ {
			for k := 0; k < a.per; k++ {
				v := nextH[p*a.per+k]
				for d := 0; d < D; d++ {
					slot := k*D + d
					v -= e[a.hAdjIdx[p][slot]] * a.hWv[p][slot]
				}
				nextH[p*a.per+k] = v
			}
		}
		h = nextH
	}
	for p := 0; p < P; p++ {
		for k := 0; k < a.per; k++ {
			if got := apps.ReadBackF64(m, a.eVals.At(p, k)); !apps.ApproxEqual(got, e[p*a.per+k], 1e-12) {
				return fmt.Errorf("em3d: e[%d,%d] = %v, want %v", p, k, got, e[p*a.per+k])
			}
			if got := apps.ReadBackF64(m, a.hVals.At(p, k)); !apps.ApproxEqual(got, h[p*a.per+k], 1e-12) {
				return fmt.Errorf("em3d: h[%d,%d] = %v, want %v", p, k, got, h[p*a.per+k])
			}
		}
	}
	return nil
}
