package fleet_test

import (
	"bufio"
	"bytes"
	"testing"

	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/fleet"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/resultcache"
)

// The three decoders a warm sweep spends its time in, measured with
// -benchmem on a real simulated entry and the point that produced it:
// the bodies of the benchmark's cache_warm (entry decode) and
// fleet_warm (entry + point decode + ReadMsg) workloads, whose
// alloc_mb_per_pass bound is 2%. The file uses only exported API so it
// can be dropped into an older tree for a paired comparison.

func benchPoint() harness.Point {
	c := em3d.Tiny()
	return harness.Point{Cfg: harness.MachineConfig(harness.ScaleReduced, 4<<10),
		System: harness.SysStache, EM3D: &c}
}

func benchEntry(b *testing.B) []byte {
	_, e, err := harness.RunPointEntry(harness.CacheParams{}, benchPoint())
	if err != nil {
		b.Fatal(err)
	}
	return e.Encode()
}

var sink any

func BenchmarkEntryDecode(b *testing.B) {
	data := benchEntry(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := resultcache.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		sink = e
	}
}

func BenchmarkPointDecode(b *testing.B) {
	data := benchPoint().Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := harness.DecodePoint(data)
		if err != nil {
			b.Fatal(err)
		}
		sink = pt.EM3D
	}
}

func BenchmarkReadMsg(b *testing.B) {
	data := fleet.Msg{Verb: "lease", Args: []string{"17", "30000"}, Payload: benchPoint().Encode()}.Encode()
	rd := bytes.NewReader(data)
	br := bufio.NewReader(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		br.Reset(rd)
		m, err := fleet.ReadMsg(br)
		if err != nil {
			b.Fatal(err)
		}
		sink = m.Payload
	}
}
