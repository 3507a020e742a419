package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mcnet/internal/rng"
)

// entry is one event run by a probe.
type entry struct {
	t       float64
	op, arg int32
}

// probe is a test Handler that logs every event it runs and then calls an
// optional hook, through which tests schedule follow-up events.
type probe struct {
	s    *Scheduler
	h    HandlerID
	log  []entry
	hook func(op, arg int32)
}

func newProbe(s *Scheduler) *probe {
	p := &probe{s: s}
	p.h = s.Register(p)
	return p
}

func (p *probe) HandleEvent(op, arg int32) {
	p.log = append(p.log, entry{p.s.Now(), op, arg})
	if p.hook != nil {
		p.hook(op, arg)
	}
}

// at schedules a probe event with payload arg at time t.
func (p *probe) at(t float64, arg int32) { p.s.Call(t, p.h, 0, arg) }

func TestEventsRunInTimeOrder(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		p.at(tm, 0)
	}
	s.RunAll(0)
	if len(p.log) != len(times) {
		t.Fatalf("executed %d events, want %d", len(p.log), len(times))
	}
	for i := 1; i < len(p.log); i++ {
		if p.log[i].t < p.log[i-1].t {
			t.Fatalf("execution order %v not sorted", p.log)
		}
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	for i := int32(0); i < 10; i++ {
		p.at(1.0, i)
	}
	s.RunAll(0)
	for i, e := range p.log {
		if e.arg != int32(i) {
			t.Fatalf("tie order %v, want insertion order", p.log)
		}
	}
}

// TestCrossLaneFIFOTieBreak checks the determinism contract across lanes:
// simultaneous events run in scheduling order regardless of which handler
// they were scheduled for.
func TestCrossLaneFIFOTieBreak(t *testing.T) {
	var s Scheduler
	var log []int32
	a, b := newProbe(&s), newProbe(&s)
	a.hook = func(_, arg int32) { log = append(log, arg) }
	b.hook = a.hook
	for i := int32(0); i < 20; i++ {
		if i%3 == 0 {
			a.at(1.0, i)
		} else {
			b.at(1.0, i)
		}
	}
	s.RunAll(0)
	if len(log) != 20 {
		t.Fatalf("executed %d events, want 20", len(log))
	}
	for i, v := range log {
		if v != int32(i) {
			t.Fatalf("tie order %v, want scheduling order", log)
		}
	}
}

func TestCallDispatchesToRegisteredHandler(t *testing.T) {
	var s Scheduler
	a, b := newProbe(&s), newProbe(&s)
	s.Call(2, a.h, 1, 10)
	s.Call(1, b.h, 2, 20)
	s.CallAfter(3, a.h, 3, 30)
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	s.RunAll(0)
	if len(a.log) != 2 || len(b.log) != 1 {
		t.Fatalf("dispatch counts a=%d b=%d, want 2/1", len(a.log), len(b.log))
	}
	if want := (entry{2, 1, 10}); a.log[0] != want {
		t.Errorf("a first call = %+v, want %+v", a.log[0], want)
	}
	if want := (entry{3, 3, 30}); a.log[1] != want {
		t.Errorf("a second call = %+v, want %+v", a.log[1], want)
	}
	if want := (entry{1, 2, 20}); b.log[0] != want {
		t.Errorf("b call = %+v, want %+v", b.log[0], want)
	}
	if s.Executed() != 3 {
		t.Errorf("Executed = %d, want 3", s.Executed())
	}
}

func TestClockAdvances(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	p.hook = func(_, _ int32) {
		if s.Now() != 2.5 {
			t.Errorf("Now() inside event = %v, want 2.5", s.Now())
		}
	}
	p.at(2.5, 0)
	if s.Now() != 0 {
		t.Errorf("initial Now() = %v, want 0", s.Now())
	}
	s.RunAll(0)
	if s.Now() != 2.5 {
		t.Errorf("final Now() = %v, want 2.5", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	p.hook = func(op, _ int32) {
		if op == 0 {
			s.CallAfter(2, p.h, 1, 0)
		}
	}
	p.at(1, 0)
	s.RunAll(0)
	if len(p.log) != 2 || p.log[1] != (entry{3, 1, 0}) {
		t.Errorf("CallAfter event log %v, want a second event at t=3", p.log)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	p.at(10, 0)
	s.Step()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	p.at(5, 0)
}

func TestCallPanicsOnPastEvent(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	p.at(5, 0)
	s.RunAll(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Call into the past did not panic")
		}
	}()
	s.CallAfter(-1, p.h, 0, 0)
}

func TestNonFiniteTimePanics(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Call(%v) did not panic", bad)
				}
			}()
			p.at(bad, 0)
		}()
	}
}

func TestRunHorizon(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	for i := 1; i <= 10; i++ {
		p.at(float64(i), 0)
	}
	reason := s.Run(5.5, 0)
	if reason != StoppedHorizon {
		t.Errorf("stop reason = %v, want horizon", reason)
	}
	if len(p.log) != 5 {
		t.Errorf("executed %d events before horizon 5.5, want 5", len(p.log))
	}
	if s.Pending() != 5 {
		t.Errorf("pending = %d, want 5", s.Pending())
	}
}

func TestRunEventLimit(t *testing.T) {
	var s Scheduler
	p := newProbe(&s)
	for i := 1; i <= 10; i++ {
		p.at(float64(i), 0)
	}
	if reason := s.RunAll(3); reason != StoppedEventLimit {
		t.Errorf("stop reason = %v, want event-limit", reason)
	}
	if s.Executed() != 3 {
		t.Errorf("Executed = %d, want 3", s.Executed())
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain that schedules its successor; classic DES self-clocking.
	var s Scheduler
	p := newProbe(&s)
	p.hook = func(_, _ int32) {
		if len(p.log) < 100 {
			s.CallAfter(1, p.h, 0, 0)
		}
	}
	p.at(0, 0)
	if reason := s.RunAll(0); reason != StoppedEmpty {
		t.Errorf("stop reason = %v, want empty", reason)
	}
	if len(p.log) != 100 || s.Now() != 99 {
		t.Errorf("count=%d now=%v, want 100, 99", len(p.log), s.Now())
	}
}

func TestRandomWorkloadExecutesAllInOrder(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var s Scheduler
		p := newProbe(&s)
		const n = 500
		for i := 0; i < n; i++ {
			p.at(src.Float64()*100, 0)
		}
		s.RunAll(0)
		return len(p.log) == n && sort.SliceIsSorted(p.log, func(i, j int) bool { return p.log[i].t < p.log[j].t })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStopReasonStrings(t *testing.T) {
	for r, want := range map[StopReason]string{
		StoppedEmpty:      "empty",
		StoppedHorizon:    "horizon",
		StoppedEventLimit: "event-limit",
		StopReason(99):    "unknown",
	} {
		if r.String() != want {
			t.Errorf("StopReason(%d).String() = %q, want %q", int(r), r.String(), want)
		}
	}
}
