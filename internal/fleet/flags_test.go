package fleet

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
)

// parse registers the shared block on a fresh flag set and parses args.
func parse(t *testing.T, d Defaults, args ...string) (*Flags, *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("/tmp/go-build/exe/sweep", flag.ContinueOnError)
	var out bytes.Buffer
	fs.SetOutput(&out)
	f := Register(fs, d)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, &out
}

// TestSharedFlagsRejectBadValues is the one validation table for the
// flag block every sweep binary shares: each out-of-range value and each
// conflicting pair is refused, and the error names the flag to fix.
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
		{[]string{"-no-cache", "-cache-dir", "/tmp/x"}, []string{"-no-cache", "-cache-dir /tmp/x"}},
		{[]string{"-no-cache", "-cache-verify", "0.5"}, []string{"-no-cache", "-cache-verify 0.5"}},
		{[]string{"-fleet", "a:1", "-workers-addr", "b:2"}, []string{"-fleet", "-workers-addr"}},
		{[]string{"-workers-addr", filepath.Join(t.TempDir(), "no", "such", "dir.sock")}, []string{"-workers-addr"}},
	} {
		f, _ := parse(t, Defaults{}, tc.args...)
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
}

// TestSharedFlagsResolve pins what a valid command line resolves to, the
// per-binary defaults, and the closing report.
func TestSharedFlagsResolve(t *testing.T) {
	f, _ := parse(t, Defaults{})
	sp, done, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	done()
	if f.Scale != harness.ScaleReduced || sp.Workers != 0 || sp.Exec != nil || sp.Cache.Cache == nil || sp.Cache.Cache.Persistent() {
		t.Errorf("defaults: scale %q, %+v; want reduced, all cores, local pool, memory cache", f.Scale, sp)
	}

	dir := t.TempDir()
	f, out := parse(t, Defaults{}, "-scale", "paper", "-j", "3", "-link-bw", "4", "-occupancy", "20",
		"-cache-dir", dir, "-cache-verify", "0.25", "-point-timeout", "90s")
	sp, done, err = f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if f.Scale != harness.ScalePaper || sp.Workers != 3 || sp.LinkBytesPerCycle != 4 || sp.OccupancyCycles != 20 ||
		sp.PointTimeout != 90*time.Second || sp.Cache.Verify != 0.25 || !sp.Cache.Cache.Persistent() {
		t.Errorf("resolved scale %q, %+v", f.Scale, sp)
	}
	done()
	if got := out.String(); !strings.HasPrefix(got, "sweep: cache "+dir+": ") {
		t.Errorf("closing report %q, want the program-prefixed cache-stats line", got)
	}

	// cmd/bench: -j defaults to 1, the scale is pinned and -scale absent.
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	f = Register(fs, Defaults{Jobs: 1, Scale: harness.ScaleReduced})
	if fs.Lookup("scale") != nil {
		t.Error("a pinned scale still registered -scale")
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sp, done, err = f.Resolve(); err != nil || sp.Workers != 1 || f.Scale != harness.ScaleReduced {
		t.Errorf("bench defaults: workers %d scale %q err %v", sp.Workers, f.Scale, err)
	} else {
		done()
	}

	// -fleet resolves to a client; nothing is dialled until Submit.
	f, _ = parse(t, Defaults{}, "-fleet", "somewhere:1")
	if sp, done, err = f.Resolve(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sp.Exec.(*Client); !ok {
		t.Errorf("-fleet built %T, want *Client", sp.Exec)
	}
	done()
}
