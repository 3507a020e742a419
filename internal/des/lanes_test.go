package des

import (
	"sort"
	"testing"

	"mcnet/internal/rng"
)

// mergeRun drives the merge-order property test: every event gets a
// sequential id (its scheduling order, hence its seq) and a random lane, and
// running an event may schedule follow-ups on any lane.
type mergeRun struct {
	t     *testing.T
	s     Scheduler
	src   *rng.Source
	ids   []HandlerID
	times []float64 // scheduled time of each event id
	lanes []int     // lane of each event id
	order []int32   // event ids in execution order
}

// mergeLane is one of the test's handlers.
type mergeLane struct {
	r    *mergeRun
	lane int
}

func (l *mergeLane) HandleEvent(_, id int32) {
	r := l.r
	if r.lanes[id] != l.lane || r.times[id] != r.s.Now() {
		r.t.Fatalf("event %d (lane %d, t=%v) ran on lane %d at t=%v", id, r.lanes[id], r.times[id], l.lane, r.s.Now())
	}
	r.order = append(r.order, id)
	for n := r.src.Intn(3); n > 0 && len(r.times) < 3000; n-- {
		r.call(r.s.Now() + float64(r.src.Intn(4)))
	}
}

// call schedules a new event at integer time t on a random lane.
func (r *mergeRun) call(t float64) {
	k := r.src.Intn(len(r.ids))
	r.times = append(r.times, t)
	r.lanes = append(r.lanes, k)
	r.s.Call(t, r.ids[k], 0, int32(len(r.times)-1))
}

// TestMergeOrderMatchesSingleHeap checks that merging the per-handler lanes
// executes events in exactly the order of one heap keyed by (time, seq):
// the stable sort of all scheduled events by time. Times are small integers,
// so ties across lanes are frequent, and handlers schedule follow-ups
// (including zero-delay ones) from inside events. The run advances in
// chunks with random horizons and event limits, and each stop is checked.
func TestMergeOrderMatchesSingleHeap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := &mergeRun{t: t, src: rng.New(seed)}
		for k := 0; k < 3; k++ {
			r.ids = append(r.ids, r.s.Register(&mergeLane{r: r, lane: k}))
		}
		for i := 0; i < 40; i++ {
			r.call(float64(r.src.Intn(10)))
		}
		for r.s.Pending() > 0 {
			until := r.s.Now() + float64(r.src.Intn(6))
			limit := uint64(r.src.Intn(40))
			start := r.s.Executed()
			switch reason := r.s.Run(until, limit); reason {
			case StoppedEventLimit:
				if limit == 0 || r.s.Executed()-start != limit {
					t.Fatalf("seed %d: event-limit stop after %d events, limit %d", seed, r.s.Executed()-start, limit)
				}
			case StoppedHorizon:
				if l := r.s.next(); l == nil || l.events[0].time <= until {
					t.Fatalf("seed %d: horizon stop at until=%v with an event due by then", seed, until)
				}
			case StoppedEmpty:
				if r.s.Pending() != 0 {
					t.Fatalf("seed %d: empty stop with %d events pending", seed, r.s.Pending())
				}
			default:
				t.Fatalf("seed %d: unknown stop reason %v", seed, reason)
			}
			if r.s.Now() > until {
				t.Fatalf("seed %d: clock %v passed horizon %v", seed, r.s.Now(), until)
			}
		}
		want := make([]int32, len(r.times))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(i, j int) bool { return r.times[want[i]] < r.times[want[j]] })
		if len(r.order) != len(want) {
			t.Fatalf("seed %d: executed %d of %d events", seed, len(r.order), len(want))
		}
		for i := range want {
			if r.order[i] != want[i] {
				t.Fatalf("seed %d: position %d ran event %d, single-heap order runs %d", seed, i, r.order[i], want[i])
			}
		}
	}
}
