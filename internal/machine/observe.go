package machine

import "github.com/tempest-sim/tempest/internal/mem"

// Observation op kinds, folded into the hash with each reference.
const (
	obsRead uint8 = iota
	obsWrite
)

// Observation is a processor's application-visible memory history,
// folded into a running hash: every tag-checked data operation the
// program performs (address, value, read/write) in program order. Two
// runs of the same data-race-free program under different protocols must
// produce identical per-processor observations — the differential
// harness's definition of "identical application-visible memory
// semantics". The hash is order-sensitive (splitmix-style chaining), so
// a reordered or altered read value changes it.
type Observation struct {
	hash uint64
	ops  uint64
}

func obsMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (o *Observation) note(kind uint8, va mem.VA, val uint64) {
	o.ops++
	h := o.hash
	h = obsMix(h ^ (uint64(kind) + 0x9e3779b97f4a7c15))
	h = obsMix(h ^ uint64(va))
	h = obsMix(h ^ val)
	o.hash = h
}

// EnableObservation attaches an Observation to every processor. Call
// before Run; the data-op hot paths pay only a nil check when
// observation is off (the default).
func (m *Machine) EnableObservation() {
	for _, p := range m.Procs {
		p.obs = &Observation{}
	}
}

// Observation returns the processor's current observation hash and the
// number of operations folded into it (zero values when observation is
// not enabled). Each processor's observation is written only by its own
// context; a mid-run read of every processor's is coherent at a barrier
// release (sim.Barrier.OnRelease, every context parked).
func (p *Proc) Observation() (hash, ops uint64) {
	if p.obs == nil {
		return 0, 0
	}
	return p.obs.hash, p.obs.ops
}
