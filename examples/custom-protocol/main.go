// A user-level custom coherence protocol built on the Tempest interface
// (the paper's §4 argument: "memory systems should provide mechanisms
// that compilers can compose into efficient solutions").
//
// The workload is a read-only table published by node 0 and scanned by
// every other node. Under the general-purpose Stache protocol each
// 32-byte block faults separately: a fault, a request, and a data reply
// per block. The custom protocol knows the table is written once and
// read whole, so its block-fault handler fetches the entire page in one
// exchange and tags every block ReadOnly — a page-grain "bulk fill"
// protocol in ~75 lines of user-level handler code. It uses one Tempest
// mechanism from each family: pages installed with MapFrame (user-level
// VM management), active messages, page-grain force reads and writes
// (bulk data), and tags set from the NP (fine-grain access control).
//
//	go run ./examples/custom-protocol
package main

import (
	"fmt"
	"log"

	tempest "github.com/tempest-sim/tempest"
)

const (
	// Page modes and message handlers compose with Stache's: the table
	// segment uses our mode, everything else stays on Stache.
	modeTableHome   = 100 // custom home page
	modeTableRemote = 101 // custom remote page

	hTableGet  = 64 // fetch request: one whole page
	hTableData = 65 // reply: page contents
)

// tableProtocol layers the page-grain protocol over Stache.
type tableProtocol struct {
	*tempest.Stache
	sys *tempest.TyphoonSystem
	// One outstanding fault per node (the compute thread suspends).
	pending []tempest.VA
}

func newTableProtocol() *tableProtocol {
	return &tableProtocol{Stache: tempest.NewStacheProtocol()}
}

func (t *tableProtocol) Name() string { return "page-grain-table" }

func (t *tableProtocol) Attach(sys *tempest.TyphoonSystem) {
	t.Stache.Attach(sys)
	t.sys = sys
	t.pending = make([]tempest.VA, sys.M.Cfg.Nodes)

	sys.RegisterPageMode(modeTableHome, tempest.PageModeOps{
		// A remote node touched an unmapped table page: install a
		// local copy with every block Invalid, then let the access
		// retry (it takes a block fault under modeTableRemote).
		PageFault: func(sys *tempest.TyphoonSystem, p *tempest.Proc, va tempest.VA, write bool) {
			if write {
				panic("table pages are read-only for consumers")
			}
			p.Compute(100)
			sys.MapFrame(p.ID(), va, tempest.TagInvalid, modeTableRemote)
		},
		BlockFault: func(np *tempest.NP, f tempest.BlockFault) {
			panic("home table pages are always ReadWrite at the home")
		},
	})
	sys.RegisterPageMode(modeTableRemote, tempest.PageModeOps{
		BlockFault: func(np *tempest.NP, f tempest.BlockFault) {
			// Ask the home for the WHOLE page, not just this block.
			page := f.VA &^ tempest.VA(tempest.PageSize-1)
			t.pending[np.Node()] = page
			np.SetTag(f.VA, tempest.TagBusy)
			np.Charge(10)
			np.SendRequest(np.FrameOf(f.VA).Home, hTableGet, []uint64{uint64(page)}, nil)
		},
	})

	sys.RegisterHandler(hTableGet, func(np *tempest.NP, pkt *tempest.Packet) {
		page := tempest.VA(pkt.Args[0])
		data := np.ForceReadPage(page)
		np.Charge(20)
		np.SendReply(pkt.Src, hTableData, []uint64{uint64(page)}, data)
	})
	sys.RegisterHandler(hTableData, func(np *tempest.NP, pkt *tempest.Packet) {
		page := tempest.VA(pkt.Args[0])
		if t.pending[np.Node()] != page {
			panic("unexpected table page")
		}
		np.ForceWritePage(page, pkt.Data)
		np.SetPageTags(page, tempest.TagReadOnly)
		np.Charge(20)
		np.Resume(np.Proc())
	})
}

func (t *tableProtocol) SetupSegment(seg *tempest.Segment) {
	if seg.Mode != modeTableHome {
		t.Stache.SetupSegment(seg)
		return
	}
	// Every table page lives at its home, writable, under our mode.
	for i := 0; i < seg.Pages(); i++ {
		va := seg.Base + tempest.VA(i*tempest.PageSize)
		t.sys.MapFrame(t.sys.M.VM.Home(va), va, tempest.TagReadWrite, modeTableHome)
	}
}

const (
	nodes      = 8
	tableBytes = 16 << 10 // 4 pages of published data
)

func run(custom bool) (cycles uint64, faults uint64) {
	cfg := tempest.DefaultConfig()
	cfg.Nodes = nodes

	var m *tempest.Machine
	mode := 0
	if custom {
		m, _ = tempest.NewTyphoon(cfg, newTableProtocol())
		mode = modeTableHome
	} else {
		m, _ = tempest.NewTyphoonStache(cfg)
	}
	table := m.AllocShared("table", tableBytes, tempest.OnNode{Node: 0}, mode)

	res, err := m.Run(func(p *tempest.Proc) {
		if p.ID() == 0 {
			for off := uint64(0); off < tableBytes; off += 8 {
				p.WriteU64(table.At(off), off*3)
			}
		}
		p.Barrier()
		// Every other node scans the whole table.
		if p.ID() != 0 {
			var sum uint64
			for off := uint64(0); off < tableBytes; off += 8 {
				sum += p.ReadU64(table.At(off))
			}
			if want := uint64(3 * 8 * ((tableBytes/8 - 1) * (tableBytes / 8) / 2)); sum != want {
				log.Fatalf("node %d: sum %d, want %d", p.ID(), sum, want)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return uint64(res.Cycles), res.Counters.Get("np.block_access_faults")
}

func main() {
	stacheCycles, stacheFaults := run(false)
	customCycles, customFaults := run(true)
	fmt.Printf("scan of a %d KB published table by %d consumers:\n", tableBytes>>10, nodes-1)
	fmt.Printf("  Stache (per-block):      %8d cycles, %5d block faults\n", stacheCycles, stacheFaults)
	fmt.Printf("  custom (page-grain):     %8d cycles, %5d block faults\n", customCycles, customFaults)
	fmt.Printf("  custom protocol speedup: %.2fx\n", float64(stacheCycles)/float64(customCycles))
}
