package network

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/sim"
)

// TestAllocFreePacketCycle asserts the full packet round trip —
// Send (copy into a pooled packet), delivery event, Dequeue, Free —
// allocates nothing once the free list and receive rings are warm. A
// huge quantum keeps the sender context from yielding anywhere except
// its explicit Sleep, so the measurement sees exactly one send/receive
// cycle per run.
func TestAllocFreePacketCycle(t *testing.T) {
	eng := sim.NewEngine(sim.WithQuantum(1 << 62))
	net := New(eng, Config{Nodes: 2, Latency: 11})
	dst := net.Endpoint(1)

	args := []uint64{0xA, 0xB, 0xC}
	data := make([]byte, 32)
	var p Packet
	var allocs float64
	eng.Spawn("sender", func(c *sim.Context) {
		cycle := func() {
			p = Packet{Src: 0, Dst: 1, VNet: VNetRequest, Handler: 7, Args: args, Data: data}
			net.Send(&p)
			c.Sleep(net.Latency() + 1) // let the delivery event fire
			q := dst.Dequeue()
			if q == nil {
				t.Error("packet not delivered")
				return
			}
			net.Free(q)
		}
		for i := 0; i < 64; i++ {
			cycle() // warm the free lists and the receive ring
		}
		allocs = testing.AllocsPerRun(100, cycle)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Errorf("packet send/receive/free cycle allocates %.1f times per run, want 0", allocs)
	}
}
