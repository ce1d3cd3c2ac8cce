package typhoon

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
)

// Message fragmentation. A Tempest message whose payload exceeds the
// twenty-word packet limit (§5: block sizes may reach 128 bytes while a
// packet carries at most 64 data bytes) is split into a header packet
// plus data fragments. Per-sender in-order delivery and run-to-completion
// handlers guarantee the fragments of one message arrive consecutively
// from a given source, so reassembly state is per source node.

// fragChunk is the data bytes carried by one fragment packet.
const fragChunk = 64

// fragBuf is one in-progress reassembly.
type fragBuf struct {
	handler uint32
	vnet    network.VNet
	args    []uint64
	data    []byte
	want    int
}

// fragKey identifies one fragment stream: messages from a node's CPU and
// NP can be in flight to the same destination at once, so the source
// node alone is not enough.
type fragKey struct {
	src    int
	stream uint64
}

// sendFragmented splits an oversized message. The header carries the
// real handler, a stream ID, the argument words, and the total data
// length; each fragment carries the stream ID and up to fragChunk bytes,
// and c, the sending context, pays its block transfer.
func (s *System) sendFragmented(c *sim.Context, src int, vnet network.VNet, dst int, handler uint32, args []uint64, data []byte) {
	s.fragSeqs[src]++
	stream := s.fragSeqs[src]
	head := append([]uint64{uint64(handler), uint64(len(data)), stream}, args...)
	s.M.Net.Send(&network.Packet{
		Src: src, Dst: dst, VNet: vnet, Handler: hFragStart, Args: head,
	})
	for off := 0; off < len(data); off += fragChunk {
		end := off + fragChunk
		if end > len(data) {
			end = len(data)
		}
		c.Advance(BlockXferCycles * sim.Time((end-off+31)/32))
		s.M.Net.Send(&network.Packet{
			Src: src, Dst: dst, VNet: vnet, Handler: hFragData,
			Args: []uint64{stream}, Data: data[off:end],
		})
	}
}

// fragStartHandler begins one stream's reassembly.
func (np *NP) fragStartHandler(pkt *network.Packet) {
	key := fragKey{src: pkt.Src, stream: pkt.Args[2]}
	if np.frags[key] != nil {
		panic(fmt.Sprintf("typhoon: np%d duplicate fragment stream %v", np.node, key))
	}
	np.ctx.Advance(2)
	np.frags[key] = &fragBuf{
		handler: uint32(pkt.Args[0]),
		vnet:    pkt.VNet,
		args:    append([]uint64(nil), pkt.Args[3:]...),
		want:    int(pkt.Args[1]),
	}
}

// fragDataHandler appends one fragment and, when complete, dispatches
// the reassembled message to its real handler.
func (np *NP) fragDataHandler(pkt *network.Packet) {
	key := fragKey{src: pkt.Src, stream: pkt.Args[0]}
	fb := np.frags[key]
	if fb == nil {
		panic(fmt.Sprintf("typhoon: np%d fragment for unknown stream %v", np.node, key))
	}
	np.ctx.Advance(BlockXferCycles * sim.Time((len(pkt.Data)+31)/32))
	fb.data = append(fb.data, pkt.Data...)
	if len(fb.data) < fb.want {
		return
	}
	delete(np.frags, key)
	h := np.sys.handler(fb.handler)
	if h == nil {
		panic(fmt.Sprintf("typhoon: np%d reassembled message for unregistered handler %d", np.node, fb.handler))
	}
	h(np, &network.Packet{
		Src: pkt.Src, Dst: np.node, VNet: fb.vnet,
		Handler: fb.handler, Args: fb.args, Data: fb.data,
	})
}
