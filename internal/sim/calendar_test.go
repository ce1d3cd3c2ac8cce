package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// calendarDelays are the delays the queue's tests and fuzz seeds draw
// from: the constants real traffic is made of (0, 1, the network's 11,
// the bus's 29, around the quantum), the lap boundary on both sides, and
// far futures no benchmark workload ever schedules.
var calendarDelays = [...]Time{0, 1, 11, 29, 63, 64, 255, 256, 257, 511, 1000, 1 << 20, 1 << 40}

// calendarChecker drives a calendar beside the naive reference — append,
// sort by (t, rank), take the first — and fails on the first pop that
// differs. Ranks are unique, as the engine's are: an event's is a fresh
// per-origin sequence number, a context's a fresh id.
type calendarChecker struct {
	tb    testing.TB
	q     calendar
	model []entry
	seq   uint64
}

// push files an entry of class 0 (event), 1 (compute context) or 2
// (daemon) at time t in both queues.
func (k *calendarChecker) push(t Time, class int) {
	k.seq++
	rank := packedKey(int(k.seq%5)-1, k.seq)
	if class > 0 {
		rank = ctxRank(uint8(class-1), int(k.seq))
	}
	k.q.push(k.q.newEvent(t, rank, nil))
	k.model = append(k.model, entry{t: t, rank: rank})
}

func (k *calendarChecker) pop() {
	k.tb.Helper()
	if k.q.n != len(k.model) {
		k.tb.Fatalf("calendar holds %d entries, model %d", k.q.n, len(k.model))
	}
	if k.q.n == 0 {
		return
	}
	sort.Slice(k.model, func(i, j int) bool { return k.model[i].less(&k.model[j]) })
	want := k.model[0]
	k.model = k.model[1:]
	cursor := k.q.cursor
	got := k.q.pop()
	if got.t != want.t || got.rank != want.rank {
		k.tb.Fatalf("pop %d with cursor %d: got (t %d, rank %#x), model says (t %d, rank %#x)",
			k.seq, cursor, got.t, got.rank, want.t, want.rank)
	}
	k.q.release(got)
}

func (k *calendarChecker) drain() {
	k.tb.Helper()
	for k.q.n > 0 {
		k.pop()
	}
	k.pop() // both empty
}

// TestCalendarMatchesReferenceModel: the digests are a function of pop
// order, and the benchmark workloads never schedule a lap ahead, before
// the cursor, or three classes on one cycle — so this is what stands
// between the lap logic and a silently different digest on the next
// workload. 240 k interleaved operations over phases of different
// occupancy, each ending in a drain to empty and a refill.
func TestCalendarMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := &calendarChecker{tb: t}
	var pushes, far, stale, ties int
	for phase, pending := range []int{3, 24, 64, 500, 8, 42} {
		for op := 0; op < 40_000; op++ {
			if k.q.n >= pending || k.q.n > 0 && rng.Intn(2) == 0 {
				k.pop()
				continue
			}
			at, class := k.q.cursor, rng.Intn(3)
			switch r := rng.Intn(10); {
			case r < 4:
				at += calendarDelays[rng.Intn(len(calendarDelays))]
			case r < 7:
				at += Time(rng.Intn(3 * calBuckets))
			case r < 8:
				at += Time(rng.Int63n(1 << 41))
			case r < 9: // before the cursor
				at -= min(at, Time(rng.Intn(2*calBuckets)))
				stale++
			default: // all three classes on one cycle, daemon first
				at += calendarDelays[rng.Intn(6)]
				k.push(at, 2)
				k.push(at, 1)
				class = 0
				ties++
			}
			if at >= k.q.cursor+calBuckets {
				far++
			}
			k.push(at, class)
			pushes++
		}
		k.drain()
		if phase%2 == 1 { // an engine whose clock is already far along
			k.push(k.q.cursor+1<<40, 0)
			k.drain()
		}
	}
	// The last lap before the clock wraps, where cursor+calBuckets
	// overflows, with one entry from the distant past.
	end := ^Time(0) - 300
	k.push(end, 0)
	k.pop()
	for _, d := range []Time{300, 0, 299, 1, 255, 256, 100} {
		k.push(end+d, int(d%3))
	}
	k.push(5, 1)
	k.drain()
	if far < 10_000 || stale < 5_000 || ties < 5_000 {
		t.Errorf("of %d pushes only %d a lap or more ahead, %d before the cursor, %d three-class ties", pushes, far, stale, ties)
	}
}

// FuzzCalendar turns bytes into pushes and pops against the same oracle.
// An operation is two bytes, kind and arg: kind%4 is 0 for a pop, else
// the class to push (1 event, 2 compute, 3 daemon), and kind/4%16 picks
// the time relative to the cursor — 0–12 a calendarDelays entry, 13 arg
// cycles ahead, 14 arg cycles before it, 15 arg<<16 cycles ahead.
func FuzzCalendar(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		k := &calendarChecker{tb: t}
		for ; len(ops) >= 2; ops = ops[2:] {
			kind, arg := int(ops[0]), Time(ops[1])
			if kind%4 == 0 {
				k.pop()
				continue
			}
			at := k.q.cursor
			switch sel := kind / 4 % 16; sel {
			case 13:
				at += arg
			case 14:
				at -= min(at, arg)
			case 15:
				at += arg << 16
			default:
				at += calendarDelays[sel]
			}
			k.push(at, kind%4-1)
		}
		k.drain()
	})
}

// BenchmarkCalendar is one push and one pop against the occupancy and
// delays of a miss_path pass: 24 pending entries, delays cycling through
// a local hop, the network, the bus and a quantum.
func BenchmarkCalendar(b *testing.B) {
	var q calendar
	delays := [...]Time{1, 11, 29, 64}
	for i := 0; i < 24; i++ {
		q.push(q.newEvent(delays[i%4], uint64(i), nil))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := q.pop()
		en.t += delays[i%4]
		q.push(en)
	}
}
