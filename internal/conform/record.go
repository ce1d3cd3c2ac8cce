package conform

import (
	"fmt"
	"strings"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/trace"
)

// Record runs a corpus pair on the real machine with the conformance
// taps attached and assembles the resulting stream. opt's Mutate and
// SkipVerify let the negative tests inject a protocol bug and watch the
// suite catch it; Record sets its Tracer. A recording whose tracer
// overflowed is refused — a truncated trace must never become a corpus
// file.
func Record(p Pair, opt harness.DiffOptions) (*Stream, error) {
	pt := p.Point()
	tr := trace.New(0)
	opt.Tracer = tr
	obs, err := harness.RunObserved(pt, opt)
	if err != nil {
		return nil, fmt.Errorf("conform: record %s: %w", p.Name(), err)
	}
	if tr.Truncated() {
		return nil, fmt.Errorf("conform: record %s: tracer truncated (%d events dropped) — raise trace.Tracer.Max, never commit a partial stream", p.Name(), tr.Dropped())
	}
	s := &Stream{
		App:         p.App,
		System:      string(p.System),
		Workload:    "tiny",
		Cfg:         p.Config(),
		Events:      nodeMajorEvents(tr, pt.Cfg.Nodes),
		Cycles:      obs.Res.Cycles,
		ROICycles:   obs.Res.ROICycles,
		MemDigest:   obs.MemDigest,
		ProtoDigest: obs.ProtoDigest,
		TagsDigest:  obs.TagsDigest,
	}
	// Counters, name-sorted, minus the engine.* scheduler mechanics:
	// those measure how the host executed the simulation (inline steps,
	// context switches), not what the simulated machine did.
	for _, name := range obs.Res.Counters.Names() {
		if strings.HasPrefix(name, "engine.") {
			continue
		}
		s.Counters = append(s.Counters, Counter{Name: name, Value: obs.Res.Counters.Get(name)})
	}
	for i := range obs.FinalProcs {
		s.Obs = append(s.Obs, ObsRow{Node: i, Hash: obs.FinalProcs[i], Ops: obs.FinalOps[i]})
	}
	return s, nil
}

// nodeMajorEvents lists the tracer's events node by node, each in
// emission order — the stream's canonical event order. Emission order,
// not the (time, node) order, is the order that shaped the run: a
// node's SendAfter calls take effect on its injection port in call
// order, and a lagging context can make that order non-monotonic in time.
func nodeMajorEvents(tr *trace.Tracer, nodes int) []trace.Event {
	var out []trace.Event
	for n := 0; n < nodes; n++ {
		out = append(out, tr.NodeEvents(n)...)
	}
	return out
}
