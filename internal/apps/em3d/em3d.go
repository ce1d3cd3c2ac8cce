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
)

// remoteReuse is how many remote edges share each distinct remote target
// value on average (several local nodes read the same remote neighbour in
// the original's clustered graphs); it is the number of DISTINCT remote
// values — which grows linearly with the remote-edge fraction at
// constant reuse — that drives communication.
const remoteReuse = 3

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

	// The graph, Go-side: edge slot k*Degree+d of processor p's k-th
	// local node reads global element eAdj[p][slot] of hVals in the E
	// phase (hAdj[p][slot] of eVals in the H phase). The weights are not
	// kept: eGen[p] and hGen[p] replay the draws that made them.
	eAdj, hAdj [][]int32
	eGen, hGen []edgeGen

	nodes int
}

// edgeGen replays one processor's edge draws for one phase: the
// generator as it stood right after the processor's remote-target pool
// was drawn, and that pool (global indices on other processors).
type edgeGen struct {
	rng  apps.Rand
	pool []int32
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
	a.nodes = m.Cfg.Nodes
	a.valMode = valMode
	a.per = a.cfg.PerProc(a.nodes)
	a.eVals = apps.NewDistArray(m, "em3d.e", a.per, 8, valMode)
	a.hVals = apps.NewDistArray(m, "em3d.h", a.per, 8, valMode)
	a.eW = apps.NewDistArray(m, "em3d.ew", a.per*a.cfg.Degree, 8, 0)
	a.hW = apps.NewDistArray(m, "em3d.hw", a.per*a.cfg.Degree, 8, 0)

	rng := apps.NewRand(a.cfg.Seed)
	a.eAdj, a.eGen = a.build(rng) // E nodes read H values
	a.hAdj, a.hGen = a.build(rng) // H nodes read E values
}

// build draws one phase's edges for every processor from rng: its index
// table, and the state each processor's weights are replayed from.
func (a *App) build(rng *apps.Rand) ([][]int32, []edgeGen) {
	P := a.nodes
	adj := make([][]int32, P)
	gen := make([]edgeGen, P)
	for p := 0; p < P; p++ {
		// Each processor's remote targets come from a pool of distinct
		// values on other processors, sized so each is shared by
		// ~remoteReuse edges: the count of distinct remote values — the
		// quantity that drives communication — grows linearly with the
		// remote-edge fraction. One processor has no other to draw from.
		expRemote := a.per * a.cfg.Degree * a.cfg.PctRemote / 100
		poolSize := expRemote / remoteReuse
		if expRemote > 0 && poolSize == 0 {
			poolSize = 1
		}
		if P == 1 {
			poolSize = 0
		}
		pool := make([]int32, poolSize)
		for i := range pool {
			q := rng.Intn(P - 1)
			if q >= p {
				q++
			}
			pool[i] = int32(q*a.per + rng.Intn(a.per))
		}
		gen[p] = edgeGen{rng: *rng, pool: pool}
		adj[p] = make([]int32, a.per*a.cfg.Degree)
		for slot := range adj[p] {
			adj[p][slot], _ = a.next(rng, pool, p)
		}
	}
	return adj, gen
}

// next draws processor p's next edge slot: its target's global index and
// its weight. It is the one statement of the draw order; set-up fills
// the index table with it, and initLocal and Verify replay it from an
// edgeGen for the weights.
func (a *App) next(rng *apps.Rand, pool []int32, p int) (int32, float64) {
	t := int32(p*a.per + rng.Intn(a.per))
	if len(pool) > 0 && rng.Intn(100) < a.cfg.PctRemote {
		t = pool[rng.Intn(len(pool))]
	}
	return t, 0.001 + 0.01*rng.Float64()
}

// initVal is the deterministic initial value of a graph node.
func initVal(kind, global int) float64 {
	return float64((global*37+kind*11)%1000)/16.0 + 1.0
}

// initLocal writes the processor's initial values and edge weights
// (owner writes, home-local), in the order every EM3D body shares.
func (a *App) initLocal(p *machine.Proc) {
	pid := p.ID()
	for k := 0; k < a.per; k++ {
		p.WriteF64(a.eVals.At(pid, k), initVal(0, pid*a.per+k))
		p.WriteF64(a.hVals.At(pid, k), initVal(1, pid*a.per+k))
	}
	eg, hg := a.eGen[pid], a.hGen[pid]
	for s := 0; s < a.per*a.cfg.Degree; s++ {
		_, ew := a.next(&eg.rng, eg.pool, pid)
		_, hw := a.next(&hg.rng, hg.pool, pid)
		p.WriteF64(a.eW.At(pid, s), ew)
		p.WriteF64(a.hW.At(pid, s), hw)
	}
}

// Body implements apps.App: Program 1 of the paper, plus the symmetric H
// phase, under the owner-computes rule with barrier separation.
func (a *App) Body(p *machine.Proc) {
	pid := p.ID()
	a.initLocal(p)
	p.Barrier()
	p.ROIStart()
	for it := 0; it < a.cfg.Iters; it++ {
		a.phase(p, a.eVals, a.hVals, a.eAdj[pid], a.eW)
		p.Barrier()
		a.phase(p, a.hVals, a.eVals, a.hAdj[pid], a.hW)
		p.Barrier()
	}
	p.ROIEnd()
}

// phase runs compute_E (or compute_H): for every local node, subtract
// the weighted sum of its neighbours' values, which adj indexes in
// targets.
func (a *App) phase(p *machine.Proc, vals, targets *apps.DistArray, adj []int32, w *apps.DistArray) {
	pid := p.ID()
	D := a.cfg.Degree
	for k := 0; k < a.per; k++ {
		v := p.ReadF64(vals.At(pid, k))
		base := k * D
		for d := 0; d < D; d++ {
			nv := p.ReadF64(targets.AtGlobal(int(adj[base+d])))
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
	e := make([]float64, P*a.per)
	h := make([]float64, P*a.per)
	for g := range e {
		e[g] = initVal(0, g)
		h[g] = initVal(1, g)
	}
	for it := 0; it < a.cfg.Iters; it++ {
		a.relax(e, h, a.eAdj, a.eGen)
		a.relax(h, e, a.hAdj, a.hGen)
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

// relax is one phase of the sequential reference: every node of vals
// less the weighted sum of its neighbours in other, the weights
// replayed from gen. A phase reads only the other array, so vals is
// updated in place.
func (a *App) relax(vals, other []float64, adj [][]int32, gen []edgeGen) {
	D := a.cfg.Degree
	for p, g := range gen {
		for k := 0; k < a.per; k++ {
			v := vals[p*a.per+k]
			for d := 0; d < D; d++ {
				_, w := a.next(&g.rng, g.pool, p)
				v -= other[adj[p][k*D+d]] * w
			}
			vals[p*a.per+k] = v
		}
	}
}
