package harness

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/blizzard"
	"github.com/tempest-sim/tempest/internal/dirnnb"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// The funnel is the one path from a point to a verified result:
// install (machine + protocol), makeApp, execute (Setup, Run, audit,
// Verify). Simulate, Run and RunObserved are all compositions of these
// three steps, MeasureRefetch uses install alone, and nothing else in
// the package builds a machine.

// installed is a machine with its protocol attached, plus whichever
// handles that protocol exposes: st for the Stache-based systems, upd
// for the update protocol, tsys for everything Typhoon-based, dsys for
// DirNNB.
type installed struct {
	m    *machine.Machine
	st   *stache.Protocol
	upd  *em3d.UpdateProtocol
	tsys *typhoon.System
	dsys *dirnnb.System
}

// setup runs one set-up phase of the point, turning a panic into an
// error that names the point and the phase. Everything before m.Run —
// machine construction, protocol install, application set-up — is
// driven by the point's (possibly wire-supplied) configuration, and the
// components report impossible ones by panicking: a home out of frames,
// a degenerate workload geometry. A sweep must report the point, and a
// fleet worker must outlive the lease.
func (pt Point) setup(phase string, f func() error) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("harness: %s: %s: %w", pt.Label(), phase, r)
		default:
			err = fmt.Errorf("harness: %s: %s: %v", pt.Label(), phase, r)
		}
	}()
	return f()
}

// install builds the point's machine and attaches its protocol — the
// only switch over system × Stache variants.
func (pt Point) install() (in installed, err error) {
	err = pt.setup("install", func() error {
		in.m = machine.New(pt.Cfg)
		switch pt.System {
		case SysDirNNB:
			in.dsys = dirnnb.New(in.m)
		case SysStache:
			var sopts []stache.Option
			if pt.StacheMaxPages > 0 {
				sopts = append(sopts, stache.WithMaxPages(pt.StacheMaxPages))
			}
			if pt.StacheMigratory {
				sopts = append(sopts, stache.WithMigratory())
			}
			in.st = stache.New(sopts...)
			in.tsys = typhoon.New(in.m, in.st)
		case SysBlizzard:
			in.tsys, in.st = blizzard.NewStache(in.m, blizzard.Config{})
		case SysUpdate:
			in.upd = em3d.NewUpdateProtocol()
			in.tsys = typhoon.New(in.m, in.upd)
		default:
			return fmt.Errorf("harness: %s: unknown system %q", pt.Label(), pt.System)
		}
		return nil
	})
	return in, err
}

// makeApp builds the point's application instance. The update and
// check-in apps drive their protocol directly and take its handle from
// in; every other app ignores it.
func (pt Point) makeApp(in installed) (apps.App, error) {
	switch {
	case pt.System == SysUpdate:
		return em3d.NewUpdateApp(*pt.EM3D, in.upd), nil
	case pt.CheckIn:
		return em3d.NewCheckInApp(*pt.EM3D, in.st), nil
	case pt.EM3D != nil:
		return em3d.New(*pt.EM3D), nil
	case pt.Ocean != nil:
		return ocean.New(*pt.Ocean), nil
	}
	return MakeApp(pt.Bench, pt.Scale, pt.Set)
}

// execute sets the app up on the installed machine, runs it, audits the
// protocol state and verifies the answer against the sequential
// reference (skipVerify leaves the last to a differential comparison).
// Every failure carries the point's label.
func (pt Point) execute(in installed, app apps.App, skipVerify bool) (machine.Result, error) {
	if err := pt.setup("setup", func() error { app.Setup(in.m); return nil }); err != nil {
		return machine.Result{}, err
	}
	res, err := in.m.Run(app.Body)
	if err == nil && in.st != nil {
		err = in.st.CheckInvariants()
	}
	if err == nil && !skipVerify {
		err = app.Verify(in.m)
	}
	if err != nil {
		return machine.Result{}, fmt.Errorf("harness: %s: %w", pt.Label(), err)
	}
	return res, nil
}

// run is install → makeApp → execute; a non-nil app is the caller's own
// and replaces the point's.
func (pt Point) run(app apps.App) (RunResult, error) {
	in, err := pt.install()
	if err == nil && app == nil {
		app, err = pt.makeApp(in)
	}
	if err != nil {
		return RunResult{}, err
	}
	res, err := pt.execute(in, app, false)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{System: pt.System, App: app.Name(), Res: res}, nil
}

// Simulate runs the point and verifies the result — the execution path
// every sweep point funnels into.
func (pt Point) Simulate() (RunResult, error) {
	if err := pt.Validate(); err != nil {
		return RunResult{}, err
	}
	return pt.run(nil)
}

// Run executes a caller-supplied app on system and verifies the result:
// the funnel's entry for programs that are not sweep points. The update
// protocol's app needs its protocol handle, so SysUpdate runs only as a
// Point.
func Run(cfg machine.Config, system System, app apps.App) (RunResult, error) {
	pt := Point{Cfg: cfg, System: system, Bench: app.Name()}
	if system == SysUpdate {
		return RunResult{}, fmt.Errorf("harness: %s: %s runs only as a Point (its app needs the protocol handle)", pt.Label(), system)
	}
	return pt.run(app)
}
