package stache_test

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// TestUntouchedHomePagesHaveNoDirectory: EM3D touches its weight arrays
// only at their homes, so no handler consults their directories and
// their home frames keep a nil user word. The audit passes over them,
// and the digest reads each absent directory exactly as an attached
// all-Idle one.
func TestUntouchedHomePagesHaveNoDirectory(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 4, CacheSize: 4096, Seed: 1})
	st := stache.New()
	typhoon.New(m, st)
	app := em3d.New(em3d.Tiny())
	app.Setup(m)
	if _, err := m.Run(app.Body); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := app.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	before := st.StateDigest()

	homeFrames := func(name string) []*mem.Frame {
		var frames []*mem.Frame
		for _, seg := range m.VM.Segments() {
			if seg.Name != name {
				continue
			}
			for i := range seg.Pages() {
				va := seg.Base + mem.VA(i*mem.PageSize)
				home := m.VM.Home(va)
				pa, _, _ := m.VM.Translate(home, va)
				frames = append(frames, m.Mems[home].Frame(pa))
			}
		}
		if len(frames) == 0 {
			t.Fatalf("no segment %q", name)
		}
		return frames
	}
	remote := 0
	for _, f := range homeFrames("em3d.e") {
		if f.User != nil {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no em3d.e home page has a directory; remote edges should have consulted some")
	}
	var untouched []*mem.Frame
	for _, name := range []string{"em3d.ew", "em3d.hw"} {
		for i, f := range homeFrames(name) {
			if f.User != nil {
				t.Errorf("%s page %d: home frame holds a %T; only its home touched it", name, i, f.User)
			}
			untouched = append(untouched, f)
		}
	}

	for _, f := range untouched {
		f.User = stache.NewIdleDirectory(m.Mems[f.Home].BlocksPerPage())
	}
	if after := st.StateDigest(); after != before {
		t.Errorf("StateDigest with all-Idle directories attached = %#x, without = %#x; want equal", after, before)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants with all-Idle directories attached: %v", err)
	}
}
