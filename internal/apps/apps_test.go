package apps_test

import (
	"math"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/apps/appbt"
	"github.com/tempest-sim/tempest/internal/apps/barnes"
	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/mp3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/dirnnb"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// tiny returns the reduced instances of all five benchmarks.
func tiny() []apps.App {
	return []apps.App{
		appbt.New(appbt.Tiny()),
		barnes.New(barnes.Tiny()),
		mp3d.New(mp3d.Tiny()),
		ocean.New(ocean.Tiny()),
		em3d.New(em3d.Tiny()),
	}
}

func runOn(t *testing.T, app apps.App, system string, nodes int) machine.Result {
	t.Helper()
	cfg := machine.Config{Nodes: nodes, CacheSize: 4096, Seed: 1}
	m := machine.New(cfg)
	var st *stache.Protocol
	switch system {
	case "dirnnb":
		dirnnb.New(m)
	case "stache":
		st = stache.New()
		typhoon.New(m, st)
	default:
		t.Fatalf("unknown system %q", system)
	}
	app.Setup(m)
	res, err := m.Run(app.Body)
	if err != nil {
		t.Fatalf("%s on %s: Run: %v", app.Name(), system, err)
	}
	if st != nil {
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%s on %s: invariants: %v", app.Name(), system, err)
		}
	}
	if err := app.Verify(m); err != nil {
		t.Fatalf("%s on %s: verify: %v", app.Name(), system, err)
	}
	return res
}

func TestAllAppsOnDirNNB(t *testing.T) {
	for _, app := range tiny() {
		app := app
		t.Run(app.Name(), func(t *testing.T) { runOn(t, app, "dirnnb", 4) })
	}
}

func TestAllAppsOnTyphoonStache(t *testing.T) {
	for _, app := range tiny() {
		app := app
		t.Run(app.Name(), func(t *testing.T) { runOn(t, app, "stache", 4) })
	}
}

func TestAppsOnEightNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, app := range tiny() {
		app := app
		t.Run(app.Name(), func(t *testing.T) { runOn(t, app, "stache", 8) })
	}
}

func TestAppsROIMeasured(t *testing.T) {
	app := ocean.New(ocean.Tiny())
	res := runOn(t, app, "dirnnb", 4)
	if res.ROICycles == 0 || res.ROICycles > res.Cycles {
		t.Fatalf("ROI = %d of %d total", res.ROICycles, res.Cycles)
	}
}

func TestDistArrayLayout(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 4, CacheSize: 4096})
	dirnnb.New(m)
	a := apps.NewDistArray(m, "x", 100, 8, 0)
	// Each proc's chunk starts on its own page and is homed there.
	for p := 0; p < 4; p++ {
		va := a.At(p, 0)
		if va.PageOffset() != 0 {
			t.Fatalf("proc %d chunk not page-aligned", p)
		}
		if home := m.VM.Home(va); home != p {
			t.Fatalf("proc %d chunk homed on %d", p, home)
		}
		if home := m.VM.Home(a.At(p, 99)); home != p {
			t.Fatalf("proc %d chunk end homed on %d", p, home)
		}
	}
	if a.AtGlobal(150) != a.At(1, 50) {
		t.Fatal("AtGlobal mapping wrong")
	}
}

// TestDistArrayRefusesIndexPastArray: an element past the last chunk
// is refused by both accessors, not mapped into the next array.
func TestDistArrayRefusesIndexPastArray(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096})
	dirnnb.New(m)
	a := apps.NewDistArray(m, "first", 512, 8, 0)
	apps.NewDistArray(m, "second", 512, 8, 0)
	refused := func(what string, at func() mem.VA, want ...string) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				return // reported below
			}
			err, ok := r.(error)
			if !ok {
				t.Fatalf("%s: panicked with %v (%T), want an error", what, r, r)
			}
			for _, w := range want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s: panic %q does not name %q", what, err, w)
				}
			}
		}()
		t.Errorf("%s = %#x, want a panic", what, at())
	}
	refused("At(2, 0)", func() mem.VA { return a.At(2, 0) }, "first", "chunk 2", "2 chunks of 512")
	refused("At(-1, 0)", func() mem.VA { return a.At(-1, 0) }, "first", "chunk -1")
	refused("At(0, 512)", func() mem.VA { return a.At(0, 512) }, "first", "element 512")
	refused("AtGlobal(1024)", func() mem.VA { return a.AtGlobal(1024) }, "first", "index 1024 out of 1024")
	refused("AtGlobal(-1)", func() mem.VA { return a.AtGlobal(-1) }, "first", "index -1")
}

// TestAtGlobalMatchesDivision holds AtGlobal's reciprocal split to
// At(idx/PerProc, idx%PerProc) for every index, at chunk sizes that
// include 1 (where the reciprocal overflows), powers of two and a
// chunk that is a whole number of pages (where a wrong chunk would not
// move the address).
func TestAtGlobalMatchesDivision(t *testing.T) {
	const nodes = 4
	for _, per := range []int{1, 2, 3, 7, 24, 512, 4096, 12345} {
		m := machine.New(machine.Config{Nodes: nodes, CacheSize: 4096})
		dirnnb.New(m)
		a := apps.NewDistArray(m, "x", per, 8, 0)
		for idx := 0; idx < per*nodes; idx++ { // both ends of every chunk among them
			if got, want := a.AtGlobal(idx), a.At(idx/per, idx%per); got != want {
				t.Fatalf("PerProc %d: AtGlobal(%d) = %#x, want At(%d, %d) = %#x", per, idx, got, idx/per, idx%per, want)
			}
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := apps.NewRand(7), apps.NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("PRNG not deterministic")
		}
	}
	c := apps.NewRand(8)
	same := true
	a2 := apps.NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestBackdoorOverlay(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096})
	dirnnb.New(m)
	a := apps.NewDistArray(m, "x", 4, 8, 0)
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteF64(a.At(0, 0), 3.5)
		}
	}); err != nil {
		t.Fatal(err)
	}
	b := apps.NewBackdoor(m)
	if got := b.ReadF64(a.At(0, 0)); got != 3.5 {
		t.Fatalf("backdoor read %v", got)
	}
	b.WriteF64(a.At(0, 0), 9.0)
	if got := b.ReadF64(a.At(0, 0)); got != 9.0 {
		t.Fatalf("overlay read %v", got)
	}
	// The simulated memory is untouched.
	if got := apps.ReadBackF64(m, a.At(0, 0)); got != 3.5 {
		t.Fatalf("simulated memory changed to %v", got)
	}
	if err := b.Expect(a.At(0, 0), "x"); err == nil {
		t.Fatal("Expect should fail after divergent overlay write")
	}
}

// TestExpectMismatchMessage pins the text of a failed comparison, which
// is all a user sees of a wrong result, and that a passing comparison —
// one per word of every verified result — formats and allocates nothing.
func TestExpectMismatchMessage(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096})
	dirnnb.New(m)
	a := apps.NewDistArray(m, "x", 600, 8, 0)
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteF64(a.At(0, 0), 3.5)
			p.WriteU64(a.At(0, 1), 7)
		}
	}); err != nil {
		t.Fatal(err)
	}
	b := apps.NewBackdoor(m)
	b.WriteF64(a.At(0, 0), 9.0)
	b.WriteU64(a.At(0, 1), 8)
	if err, want := b.Expect(a.At(0, 0), "ocean grid%d[%d][%d]", 1, 300, 511),
		"ocean grid1[300][511] at 0x400000000000: simulated 3.5, replay 9"; err == nil || err.Error() != want {
		t.Errorf("Expect: %v, want %q", err, want)
	}
	if err, want := b.ExpectU64(a.At(0, 1), "flag %d", 1),
		"flag 1 at 0x400000000008: simulated 7, replay 8"; err == nil || err.Error() != want {
		t.Errorf("ExpectU64: %v, want %q", err, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := 2; i < 600; i++ {
			if b.Expect(a.At(0, i), "barnes body %d word %d", 1000+i, i) != nil || b.ExpectU64(a.At(0, i), "w %d", 1000+i) != nil {
				t.Fatal("a matching word was refused")
			}
		}
	}); n != 0 {
		t.Errorf("matching Expect/ExpectU64 allocate %v times per 598 words, want 0", n)
	}
}

// TestVerifyNamesTheFirstWrongWord: every application's Verify reports a
// wrong result by the name of the first word it checks — after a run
// whose whole shared memory is overwritten with NaN, that is word zero.
func TestVerifyNamesTheFirstWrongWord(t *testing.T) {
	first := map[string]string{
		"appbt":  "appbt u[0][0][0].0 at 0x",
		"barnes": "barnes body 0 word 0 at 0x",
		"mp3d":   "mp3d particle 0.0 word 0 at 0x",
		"ocean":  "ocean grid0[0][0] at 0x",
	}
	for _, app := range tiny() {
		want, ok := first[app.Name()]
		if !ok {
			continue // em3d compares whole arrays, not named words
		}
		m := machine.New(machine.Config{Nodes: 4, CacheSize: 4096, Seed: 1})
		dirnnb.New(m)
		app.Setup(m)
		if _, err := m.Run(app.Body); err != nil {
			t.Fatalf("%s: Run: %v", app.Name(), err)
		}
		for _, seg := range m.VM.Segments() {
			for va := seg.Base; va < seg.End(); va += 8 {
				home := m.VM.Home(va)
				if pa, _, ok := m.VM.Translate(home, va); ok {
					m.Mems[home].WriteF64(pa, math.NaN())
				}
			}
		}
		err := app.Verify(m)
		if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), ": simulated NaN, replay ") {
			t.Errorf("%s: Verify = %v, want %q…: simulated NaN, replay …", app.Name(), err, want)
		}
	}
}

// TestBackdoorOverlayAcrossPages: the overlay is one value array per
// page beside a per-page written-bitmap. Words on both sides of page boundaries,
// written in an order that grows the page table backwards and forwards,
// must read back what was written; their unwritten neighbours — in a
// page the overlay holds and in pages it never saw — must still read the
// simulated memory; and nothing may reach that memory.
func TestBackdoorOverlayAcrossPages(t *testing.T) {
	const perProc = 3 * mem.PageSize / 8 // three pages of words per processor
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096})
	dirnnb.New(m)
	a := apps.NewDistArray(m, "x", perProc, 8, 0)
	// The simulated run leaves a value in words 0, 1, 122, 123, 244, ...
	// (processor p writes every 122nd word from p) and zero elsewhere.
	simulated := func(i int) uint64 {
		if i%122 < 2 {
			return 0xABCD_0000 + uint64(i)
		}
		return 0
	}
	if _, err := m.Run(func(p *machine.Proc) {
		for i := p.ID(); i < 2*perProc; i += 122 {
			p.WriteU64(a.AtGlobal(i), simulated(i))
		}
	}); err != nil {
		t.Fatal(err)
	}

	b := apps.NewBackdoor(m)
	const wpp = mem.PageSize / 8
	written := map[int]uint64{}
	// Last word of page 3, first of page 4, both ends of page 1, then
	// page 5's end and page 0's start; zero is a value like any other.
	for n, i := range []int{4*wpp - 1, 4 * wpp, wpp, 2*wpp - 1, 6*wpp - 1, 0, 4*wpp + 64} {
		v := uint64(n) * 0x1111
		b.WriteU64(a.AtGlobal(i), v)
		written[i] = v
	}
	for i := 0; i < 2*perProc; i++ {
		want, ok := written[i]
		if !ok {
			want = simulated(i)
		}
		if got := b.ReadU64(a.AtGlobal(i)); got != want {
			t.Fatalf("word %d (page %d): backdoor read %#x, want %#x (written: %v)", i, i/wpp, got, want, ok)
		}
		if got := apps.ReadBackU64(m, a.AtGlobal(i)); got != simulated(i) {
			t.Fatalf("word %d: simulated memory is %#x, want %#x", i, got, simulated(i))
		}
	}
	if err := b.ExpectU64(a.AtGlobal(0), "x"); err == nil {
		t.Error("ExpectU64 passed after a divergent write")
	}
	if err := b.ExpectU64(a.AtGlobal(1), "x"); err != nil {
		t.Errorf("ExpectU64 on an unwritten word: %v", err)
	}
}

// TestBackdoorRefusesStrayAddresses: the overlay is indexed by address,
// so a write outside allocated shared memory, or to an unaligned word,
// must be refused rather than sized from or aliased onto a neighbour.
func TestBackdoorRefusesStrayAddresses(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096})
	dirnnb.New(m)
	a := apps.NewDistArray(m, "x", 4, 8, 0)
	priv := m.AllocPrivate(0, mem.PageSize)
	b := apps.NewBackdoor(m)
	for name, va := range map[string]mem.VA{
		"private":            priv,
		"past the segment":   a.Seg.End() + 1<<40,
		"unaligned":          a.At(0, 0) + 4,
		"below every region": 8,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WriteU64 to a %s address (%#x) did not panic", name, va)
				}
			}()
			b.WriteU64(va, 1)
		}()
	}
}
