package harness

import (
	"bytes"
	"strings"
	"testing"
)

// retiredObservedPayload is a point carrying the "observed true"
// directive line the format briefly defined: no wire ever carried it
// (both fleet ends refused such points), and the decoder now treats it
// like any other unknown line.
func retiredObservedPayload() []byte {
	return withSum([]byte(pointMagic + "\n" +
		"cfg 4 8192 4 32 64 29 25 11 11 0 0 0 1\n" +
		"system dirnnb\nbench ocean\nocean 18 2 false\nnocache true\nobserved true\n"))
}

// shardsTokenPayload is a well-formed point whose cfg line ends in the
// shard count that v3 dropped: under the v2 magic it is what a v2 sender
// encodes, under the current magic its 14th and 15th tokens are trailing
// data.
func shardsTokenPayload(magic string) []byte {
	return withSum([]byte(magic + "\n" +
		"cfg 4 8192 4 32 64 29 25 11 11 0 0 0 0 1 2\n" +
		"system typhoon-stache\nbench ocean\nscale reduced\nset small\n"))
}

// FuzzDecodePoint feeds DecodePoint arbitrary bytes — it parses lease
// payloads straight off the network — and requires: never a panic; a
// structured error or a point whose re-encoding is byte-identical
// (canonical form is unique); and, for a point Validate accepts, a
// funnel whose set-up phase returns (a machine or an error) instead of
// panicking, which is what keeps one bad lease from killing a worker.
func FuzzDecodePoint(f *testing.F) {
	for _, pt := range testPoints() {
		f.Add(pt.Encode())
	}
	f.Add(v1Payload())
	f.Add(retiredObservedPayload())
	f.Add(shardsTokenPayload("tempest-point v2")) // testdata: retired-v2-magic
	f.Add(shardsTokenPayload(pointMagic))         // testdata: retired-shards-token
	f.Add(v3Payload())                            // testdata: retired-v3-magic
	for _, base := range setupFailureSystems() {
		for _, mutate := range setupFailureCases() {
			pt := base
			mutate(&pt)
			f.Add(pt.Encode())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := DecodePoint(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "harness: decode point: ") {
				t.Fatalf("decode error is not structured: %v", err)
			}
			return
		}
		if re := pt.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical input:\n in  %q\n out %q", data, re)
		}
		if pt.Validate() != nil {
			return
		}
		// Bound the work, not the property: a fuzzer-found machine or
		// workload that is merely enormous would only exhaust the host.
		if pt.Cfg.Nodes > 64 || pt.Cfg.CacheSize > 1<<22 || pt.Scale == ScalePaper ||
			(pt.EM3D != nil && (pt.EM3D.TotalNodes > 1<<16 || pt.EM3D.Degree > 64)) ||
			(pt.Ocean != nil && pt.Ocean.N > 512) {
			return
		}
		in, err := pt.install()
		if err != nil {
			return
		}
		app, err := pt.makeApp(in)
		if err != nil {
			t.Fatalf("Validate accepted a point whose app cannot be built: %v", err)
		}
		_ = pt.setup("setup", func() error { app.Setup(in.m); return nil })
	})
}
