package stache

import (
	"bytes"
	"fmt"

	"github.com/tempest-sim/tempest/internal/mem"
)

// CheckInvariants audits the whole machine's coherence state at a
// quiescent point (typically after a run): for every shared block it
// verifies the single-writer/multi-reader discipline, the agreement
// between access tags and the home directory, and the byte-identity of
// all readable copies. It returns the first violation found, or nil.
//
// The checker is intentionally conservative about directory staleness:
// the directory may list a node that no longer holds a copy (a race with
// page replacement leaves only harmless extra invalidations), but a node
// holding a copy must be known to the directory.
func (st *Protocol) CheckInvariants() error {
	// One pair of block buffers for the whole audit: the home copy and
	// the read-only copy being compared with it.
	homeData, data := make([]byte, st.bs), make([]byte, st.bs)
	for _, seg := range st.m.VM.Segments() {
		for off := uint64(0); off < uint64(seg.Pages())*mem.PageSize; off += uint64(st.bs) {
			va := seg.Base + mem.VA(off)
			if err := st.checkBlock(va, homeData, data); err != nil {
				return fmt.Errorf("segment %q block %#x: %w", seg.Name, va, err)
			}
		}
	}
	return nil
}

func (st *Protocol) checkBlock(va mem.VA, homeData, data []byte) error {
	home := st.m.VM.Home(va)
	homePA, _, ok := st.m.VM.Translate(home, va)
	if !ok {
		return fmt.Errorf("home node %d has no mapping", home)
	}
	homeMem := st.m.Mems[home]
	frame := homeMem.Frame(homePA)
	hd, ok := frame.User.(*homeDir)
	if !ok && frame.User != nil {
		return fmt.Errorf("home frame has no directory (user word %T)", frame.User)
	}
	d := hd.block(int(va.PageOffset()) / st.bs)
	if d.state == dirBusy {
		return fmt.Errorf("directory still Busy (pend=%d) at quiescence", d.pend)
	}
	homeTag := homeMem.Tag(homePA)
	homeMem.ReadBlock(homePA, homeData)

	writers := 0
	for n := 0; n < st.m.Cfg.Nodes; n++ {
		if n == home {
			continue
		}
		pa, _, ok := st.m.VM.Translate(n, va)
		if !ok {
			continue
		}
		tag := st.m.Mems[n].Tag(pa)
		switch tag {
		case mem.TagReadWrite:
			writers++
			if d.state != dirExclusive || int(d.owner) != n {
				return fmt.Errorf("node %d holds ReadWrite copy but directory is %v (owner %d)", n, d.state, d.owner)
			}
			if homeTag != mem.TagInvalid {
				return fmt.Errorf("remote owner %d exists but home tag is %v", n, homeTag)
			}
		case mem.TagReadOnly:
			if d.state != dirShared || !d.sharers.has(n) {
				return fmt.Errorf("node %d holds ReadOnly copy but directory is %v / not listed", n, d.state)
			}
			st.m.Mems[n].ReadBlock(pa, data)
			if !bytes.Equal(data, homeData) {
				return fmt.Errorf("node %d ReadOnly copy differs from home data", n)
			}
		case mem.TagBusy:
			return fmt.Errorf("node %d block still Busy at quiescence", n)
		}
	}
	if writers > 1 {
		return fmt.Errorf("%d simultaneous writers", writers)
	}
	if d.state == dirShared && homeTag == mem.TagReadWrite {
		return fmt.Errorf("directory Shared but home tag ReadWrite")
	}
	return nil
}
