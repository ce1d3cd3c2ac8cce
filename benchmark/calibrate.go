package main

import (
	"container/heap"
	"time"
)

// Calibration. Every time the benchmark reports is in calibrated seconds:
// wall seconds scaled by how fast a fixed reference program ran right
// next to the timed work,
//
//	calibrated = wall × calNominalS ÷ (wall seconds of the slices around it)
//
// so that on this kind of host, when it is quiet, calibrated seconds are
// wall seconds. The reason is measured, not assumed. The virtual machine
// shares its cores, and for minutes at a time identical simulator work
// runs 25-55% slower, fluctuating as much from second to second (pure
// register arithmetic barely changes; anything that switches goroutines,
// allocates or walks memory slows together). Over five minutes of such a
// stretch, the fastest hit_path pass of consecutive ten-second windows
// spread 15% between its quartiles and 62% end to end, and the median
// pass 29%; the same passes divided by the slices interleaved with them
// spread 2.4% and 9%. The large-set points, with a slice only every
// 0.2-0.6 s, went from 13-19% to 3.4%. Two sets of ten whole runs per
// workload taken through such stretches (README.md): the fastest wall
// pass spread up to 39% on the simulating workloads, pass_s at most 5.5%.
// Without this no bound the contract allows (at most 25%) holds here.
//
// The reference program is a discrete-event simulator in miniature with
// the shape of internal/sim — contexts are goroutines resumed over
// channels by an engine popping a binary heap, each activation looks tags
// up in a table and schedules its next event through a closure — because
// what it has to match is how the simulator's instruction mix suffers
// from a neighbour, and a program of another shape does not: over the
// same five minutes a register-arithmetic loop tracked the passes with
// correlation 0.78 and left a 12% spread, this one 0.95 and 2.4%. It
// imports nothing from the repository, so no change to the simulator
// moves it, and a change here is a change to the benchmark.

// calSteps is the events one slice executes.
const calSteps = 8000

// calNominalS is a typical slice's wall seconds on this host when it is
// quiet (the median slice of ten undisturbed fig_large runs; the fastest
// slices take 0.0107). It only fixes the scale.
const calNominalS = 0.0120

// calEvery is how much wall time may pass between slices when the timed
// units are shorter than that (the cache-served passes); a simulating
// pass runs a slice before every point.
const calEvery = 40 * time.Millisecond

type calEvent struct {
	at, seq uint64
	fire    func()
}

type calQueue []*calEvent

func (q calQueue) Len() int { return len(q) }
func (q calQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q calQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)   { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// calSlice runs the reference program for calSteps events and returns
// the wall seconds it took. Its eight contexts hand control back and
// forth with the engine one at a time, so the shared state needs no lock.
func calSlice() float64 {
	start := time.Now()
	const contexts, tags, lookups = 8, 4096, 24
	var (
		queue    calQueue
		now, seq uint64
		misses   = make(map[uint64]uint64)
		back     = make(chan struct{}, 1)
		stop     = make(chan struct{})
	)
	schedule := func(at uint64, resume chan struct{}) {
		seq++
		heap.Push(&queue, &calEvent{at: at, seq: seq, fire: func() { resume <- struct{}{}; <-back }})
	}
	for i := 0; i < contexts; i++ {
		resume := make(chan struct{}, 1)
		table := make([]uint32, tags)
		x := uint64(i)*977 + 1
		go func() {
			for {
				select {
				case <-resume:
				case <-stop:
					return
				}
				for k := 0; k < lookups; k++ {
					x = x*6364136223846793005 + 1442695040888963407
					slot, tag := (x>>40)%tags, uint32(x>>20)
					if table[slot] != tag {
						table[slot] = tag
						misses[x>>50]++
					}
				}
				schedule(now+1+(x>>33)%16, resume)
				select {
				case back <- struct{}{}:
				case <-stop:
					return
				}
			}
		}()
		schedule(0, resume)
	}
	for left := calSteps; left > 0; left-- {
		e := heap.Pop(&queue).(*calEvent)
		now = e.at
		e.fire()
	}
	close(stop)
	return time.Since(start).Seconds()
}

// calibrator runs slices between timed units and afterwards tells each
// unit how fast the host was around it.
type calibrator struct {
	slices []float64 // wall seconds of each slice, in run order
	last   time.Time // when the latest slice ended
}

// mark is called just before a timed unit. It runs a slice unless the
// latest one ended less than every ago, and returns the latest slice's
// index, which the unit hands to scale once close has run. A nil
// calibrator runs nothing, so the timed passes and the traced ones share
// one code path.
func (c *calibrator) mark(every time.Duration) int {
	if c == nil {
		return -1
	}
	if len(c.slices) == 0 || time.Since(c.last) >= every {
		c.slices = append(c.slices, calSlice())
		c.last = time.Now()
	}
	return len(c.slices) - 1
}

// close runs the slice that follows the last unit.
func (c *calibrator) close() { c.mark(0) }

// scale returns what a unit's wall seconds are multiplied by: nominal
// slice seconds over the mean of the slice before the unit (index at)
// and the next one after it.
func (c *calibrator) scale(at int) float64 {
	return calNominalS / ((c.slices[at] + c.slices[at+1]) / 2)
}
