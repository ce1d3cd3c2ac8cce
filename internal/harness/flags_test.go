package harness

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// parse registers the shared block on a fresh flag set and parses args.
func parse(t *testing.T, d FlagDefaults, args ...string) (*Flags, *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("/tmp/go-build/exe/sweep", flag.ContinueOnError)
	var out bytes.Buffer
	fs.SetOutput(&out)
	f := RegisterFlags(fs, d)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, &out
}

// TestSharedFlagsRejectBadValues is the one validation table for the
// flag block every sweep binary shares: each out-of-range value, and a
// -cache-verify without -cache-dir, is refused, and the error names the
// flag to fix.
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
		{[]string{"-cache-verify", "1.5"}, []string{"-cache-verify 1.5"}},
		{[]string{"-cache-verify", "-0.1"}, []string{"-cache-verify -0.1"}},
		{[]string{"-cache-verify", "0.5"}, []string{"-cache-verify 0.5 needs -cache-dir"}},
	} {
		f, _ := parse(t, FlagDefaults{}, tc.args...)
		_, _, err := f.Resolve()
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
	// The removed cache switch, embedded-coordinator flag and fleet
	// client flag are undefined, not ignored.
	for _, name := range []string{"-no-cache", "-workers-addr", "-fleet"} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterFlags(fs, FlagDefaults{})
		if err := fs.Parse([]string{name, "x"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%s: parse error %v, want it undefined", name, err)
		}
	}
}

// TestSharedFlagsResolve pins what a valid command line resolves to, the
// per-binary defaults, and the closing report.
func TestSharedFlagsResolve(t *testing.T) {
	f, _ := parse(t, FlagDefaults{})
	sp, done, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	done()
	if f.Scale != ScaleReduced || sp.Workers != 0 || sp.Cache.Cache != nil {
		t.Errorf("defaults: scale %q, %+v; want reduced, all cores, no cache", f.Scale, sp)
	}

	dir := t.TempDir()
	f, out := parse(t, FlagDefaults{}, "-scale", "paper", "-j", "3", "-link-bw", "4", "-occupancy", "20",
		"-cache-dir", dir, "-cache-verify", "0.25", "-point-timeout", "90s")
	sp, done, err = f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if f.Scale != ScalePaper || sp.Workers != 3 || sp.LinkBytesPerCycle != 4 || sp.OccupancyCycles != 20 ||
		sp.PointTimeout != 90*time.Second || sp.Cache.Verify != 0.25 || sp.Cache.Cache == nil {
		t.Errorf("resolved scale %q, %+v", f.Scale, sp)
	}
	done()
	if got := out.String(); !strings.HasPrefix(got, "sweep: cache "+dir+": ") {
		t.Errorf("closing report %q, want the program-prefixed cache-stats line", got)
	}

	// cmd/bench: -j defaults to 1, the scale is pinned and -scale absent.
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	f = RegisterFlags(fs, FlagDefaults{Jobs: 1, Scale: ScaleReduced})
	if fs.Lookup("scale") != nil {
		t.Error("a pinned scale still registered -scale")
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sp, done, err = f.Resolve(); err != nil || sp.Workers != 1 || f.Scale != ScaleReduced {
		t.Errorf("bench defaults: workers %d scale %q err %v", sp.Workers, f.Scale, err)
	} else {
		done()
	}
}
