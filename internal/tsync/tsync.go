// Package tsync implements synchronization primitives as user-level
// Tempest code — the extension the paper's §2 footnote flags as future
// work ("we are investigating adding a set of synchronization
// primitives, to allow aggressive hardware implementations of common
// operations"). Each primitive is managed by an NP handler at a home
// node: a FIFO queue lock granted by message, and a fetch-and-add
// counter, both built purely from the active-message mechanism —
// no shared-memory polling, no extra hardware.
package tsync

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// tsync's message handler IDs; the protocols' IDs (Stache uses 16-26,
// the EM3D update protocol 27-31) stay below them.
const (
	hAcquire uint32 = 48 + iota
	hGrant
	hRelease
	hFetchAdd
	hFetchAddReply
)

// Manager serves a fixed set of locks and counters, each homed on
// lockID % nodes (respectively counterID % nodes).
type Manager struct {
	sys *typhoon.System

	locks    []lockState
	counters []uint64

	// Per-node wakeup state: at most one outstanding acquire or
	// fetch-and-add per compute thread.
	granted []bool
	fetched []uint64
	waiter  []*machine.Proc
}

type lockState struct {
	held  bool
	queue []int32 // waiting nodes, FIFO
}

// New registers a manager for nLocks locks and nCounters counters on
// sys. Call before the machine runs.
func New(sys *typhoon.System, nLocks, nCounters int) *Manager {
	nodes := sys.M.Cfg.Nodes
	m := &Manager{
		sys:      sys,
		locks:    make([]lockState, nLocks),
		counters: make([]uint64, nCounters),
		granted:  make([]bool, nodes),
		fetched:  make([]uint64, nodes),
		waiter:   make([]*machine.Proc, nodes),
	}
	sys.RegisterHandler(hAcquire, m.handleAcquire)
	sys.RegisterHandler(hGrant, m.handleGrant)
	sys.RegisterHandler(hRelease, m.handleRelease)
	sys.RegisterHandler(hFetchAdd, m.handleFetchAdd)
	sys.RegisterHandler(hFetchAddReply, m.handleFetchAddReply)
	return m
}

func (m *Manager) lockHome(id int) int { return id % m.sys.M.Cfg.Nodes }

// Acquire takes lock id, blocking the calling processor until the home
// NP grants it. Grants are FIFO.
func (m *Manager) Acquire(p *machine.Proc, id int) {
	if id < 0 || id >= len(m.locks) {
		panic(fmt.Sprintf("tsync: lock %d out of range", id))
	}
	node := p.ID()
	m.granted[node] = false
	m.waiter[node] = p
	m.sys.Send(p, network.VNetRequest, m.lockHome(id), hAcquire,
		[]uint64{uint64(id), uint64(node)}, nil)
	for !m.granted[node] {
		p.Ctx.Park("lock %d", id)
	}
	m.waiter[node] = nil
}

// Release returns lock id; the home NP hands it to the next waiter.
func (m *Manager) Release(p *machine.Proc, id int) {
	m.sys.Send(p, network.VNetRequest, m.lockHome(id), hRelease,
		[]uint64{uint64(id)}, nil)
}

// FetchAdd atomically adds delta to counter id at its home NP and
// returns the previous value, blocking the caller for the round trip.
func (m *Manager) FetchAdd(p *machine.Proc, id int, delta uint64) uint64 {
	if id < 0 || id >= len(m.counters) {
		panic(fmt.Sprintf("tsync: counter %d out of range", id))
	}
	node := p.ID()
	m.granted[node] = false
	m.waiter[node] = p
	m.sys.Send(p, network.VNetRequest, m.lockHome(id), hFetchAdd,
		[]uint64{uint64(id), uint64(node), delta}, nil)
	for !m.granted[node] {
		p.Ctx.Park("fetch-add %d", id)
	}
	m.waiter[node] = nil
	return m.fetched[node]
}

// --- NP handlers (home side) ---

func (m *Manager) handleAcquire(np *typhoon.NP, pkt *network.Packet) {
	id := int(pkt.Args[0])
	requester := int(pkt.Args[1])
	l := &m.locks[id]
	np.Charge(6)
	if l.held {
		l.queue = append(l.queue, int32(requester))
		return
	}
	l.held = true
	np.SendReply(requester, hGrant, []uint64{uint64(id)}, nil)
}

func (m *Manager) handleRelease(np *typhoon.NP, pkt *network.Packet) {
	id := int(pkt.Args[0])
	l := &m.locks[id]
	np.Charge(6)
	if !l.held {
		panic(fmt.Sprintf("tsync: release of free lock %d", id))
	}
	if len(l.queue) == 0 {
		l.held = false
		return
	}
	next := int(l.queue[0])
	copy(l.queue, l.queue[1:])
	l.queue = l.queue[:len(l.queue)-1]
	np.SendReply(next, hGrant, []uint64{uint64(id)}, nil)
}

func (m *Manager) handleFetchAdd(np *typhoon.NP, pkt *network.Packet) {
	id := int(pkt.Args[0])
	requester := int(pkt.Args[1])
	delta := pkt.Args[2]
	np.Charge(6)
	old := m.counters[id]
	m.counters[id] += delta
	np.SendReply(requester, hFetchAddReply, []uint64{old}, nil)
}

// --- NP handlers (requester side) ---

func (m *Manager) handleGrant(np *typhoon.NP, pkt *network.Packet) {
	node := np.Node()
	m.granted[node] = true
	np.Charge(3)
	if w := m.waiter[node]; w != nil {
		w.Ctx.Unpark(np.Time())
	}
}

func (m *Manager) handleFetchAddReply(np *typhoon.NP, pkt *network.Packet) {
	node := np.Node()
	m.fetched[node] = pkt.Args[0]
	m.granted[node] = true
	np.Charge(3)
	if w := m.waiter[node]; w != nil {
		w.Ctx.Unpark(np.Time())
	}
}
