package harness

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// parse registers the shared block on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSharedFlagsRejectBadValues is the one validation table for the
// flag block every sweep binary shares: each out-of-range value is
// refused, and the error names the flag to fix.
func TestSharedFlagsRejectBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-scale", "huge"}, []string{"-scale", `"huge"`}},
		{[]string{"-j", "-3"}, []string{"-j -3"}},
		{[]string{"-link-bw", "-1"}, []string{"-link-bw -1"}},
		{[]string{"-occupancy", "-20"}, []string{"-occupancy -20"}},
		{[]string{"-point-timeout", "-1s"}, []string{"-point-timeout -1s"}},
	} {
		f := parse(t, tc.args...)
		_, err := f.Resolve()
		if err == nil {
			t.Errorf("%v: accepted, want an error", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not mention %q", tc.args, err, w)
			}
		}
	}
	// The removed cache switches, embedded-coordinator flag, fleet
	// client flag, sharding flag and cached-sweep assertion are
	// undefined, not ignored.
	for _, name := range []string{"-no-cache", "-cache-dir", "-cache-verify", "-workers-addr", "-fleet", "-shards", "-expect-cached"} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterFlags(fs)
		if err := fs.Parse([]string{name, "x"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%s: parse error %v, want it undefined", name, err)
		}
	}
}

// TestSharedFlagsResolve pins what a valid command line resolves to and
// the defaults.
func TestSharedFlagsResolve(t *testing.T) {
	f := parse(t)
	sp, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if f.Scale != ScaleReduced || sp.Workers != 0 {
		t.Errorf("defaults: scale %q, %+v; want reduced, all cores", f.Scale, sp)
	}

	f = parse(t, "-scale", "paper", "-j", "3", "-link-bw", "4", "-occupancy", "20",
		"-point-timeout", "90s")
	sp, err = f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if f.Scale != ScalePaper || sp.Workers != 3 || sp.LinkBytesPerCycle != 4 || sp.OccupancyCycles != 20 ||
		sp.PointTimeout != 90*time.Second {
		t.Errorf("resolved scale %q, %+v", f.Scale, sp)
	}
}
