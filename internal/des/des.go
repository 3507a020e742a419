// Package des implements a deterministic discrete-event simulation engine:
// a future-event list ordered by (time, insertion sequence) and a scheduler
// that executes events in that total order.
//
// Determinism is load-bearing for the whole reproduction: simultaneous events
// are executed in insertion order, so a simulation driven by a seeded RNG
// produces bit-identical results on every run. The engine is single-threaded
// by design (a DES has one global clock); parallelism lives one level up, in
// the replication runner.
//
// # Hot path
//
// Events are dispatched to Handlers registered once via Register:
// Call(t, h, op, arg) schedules handlers[h].HandleEvent(op, arg), where op
// discriminates the event kind and arg carries a small integer payload (a
// channel, node or pool-slot index). Scheduling never allocates once the
// heaps have grown to their working size.
//
// The future-event list is split into one lane per Handler, each an
// index-addressed binary heap of pointer-free 24-byte event structs, so
// sift-up/down is a plain value copy with no interface boxing and no GC
// write barriers. Step executes the least lane head by the global
// (time, seq) key; because seq is one counter shared by all lanes, the
// execution order is exactly that of a single heap. Splitting pays because
// the engines' event populations differ in kind: the simulator keeps one
// far-future arrival timer per node pending, while nearly all executed
// events are near-future wormhole events, which now sift through a heap of
// their own instead of through the timers.
package des

import (
	"errors"
	"math"
)

// Handler receives scheduled events. One Handler (typically the simulation
// engine itself) serves many event kinds, discriminated by op; arg carries a
// small integer payload such as a channel, node or pool-slot index.
type Handler interface {
	HandleEvent(op, arg int32)
}

// HandlerID names a Handler registered with a Scheduler.
type HandlerID int32

// event is one heap slot: 24 pointer-free bytes. The handler is implied by
// the lane that holds the event.
type event struct {
	time float64
	seq  uint64
	op   int32
	arg  int32
}

// before is the event order: time, with insertion sequence as the stable
// FIFO tie-break.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// lane is the future-event heap of one registered Handler.
type lane struct {
	h      Handler
	events []event
}

// push appends the event and restores the heap by sifting it up.
func (l *lane) push(e event) {
	l.events = append(l.events, e)
	h := l.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].before(&e) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the minimum event. The caller guarantees the heap
// is non-empty.
func (l *lane) pop() event {
	h := l.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	l.events = h
	if n > 0 {
		// Sift `last` down from the root along the smaller-child path.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top
}

// Scheduler owns the simulation clock and the future-event lanes. The zero
// value is a scheduler at time 0 with no handlers and no pending events.
type Scheduler struct {
	now      float64
	seq      uint64
	executed uint64
	lanes    []lane
}

// Now returns the current simulated time.
func (s *Scheduler) Now() float64 { return s.now }

// Pending returns the number of events in the future-event list.
func (s *Scheduler) Pending() int {
	n := 0
	for i := range s.lanes {
		n += len(s.lanes[i].events)
	}
	return n
}

// Executed returns the number of events executed so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Register adds a handler with its own event lane and returns its ID.
// Handlers are registered once at construction time and never removed.
func (s *Scheduler) Register(h Handler) HandlerID {
	s.lanes = append(s.lanes, lane{h: h})
	return HandlerID(len(s.lanes) - 1)
}

// ErrPastEvent reports an attempt to schedule an event before the current
// simulated time.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// Call schedules handlers[h].HandleEvent(op, arg) at absolute time t. It
// panics if t precedes the current time or is not a finite number:
// scheduling into the past is always a programming error in the caller.
func (s *Scheduler) Call(t float64, h HandlerID, op, arg int32) {
	if t < s.now || math.IsNaN(t) || math.IsInf(t, 0) {
		panic(ErrPastEvent)
	}
	s.lanes[h].push(event{time: t, seq: s.seq, op: op, arg: arg})
	s.seq++
}

// CallAfter schedules handlers[h].HandleEvent(op, arg) after delay d.
func (s *Scheduler) CallAfter(d float64, h HandlerID, op, arg int32) {
	s.Call(s.now+d, h, op, arg)
}

// next returns the lane holding the earliest pending event, or nil if no
// event is pending.
func (s *Scheduler) next() *lane {
	var best *lane
	for i := range s.lanes {
		l := &s.lanes[i]
		if len(l.events) > 0 && (best == nil || l.events[0].before(&best.events[0])) {
			best = l
		}
	}
	return best
}

// exec pops and executes the head event of l.
func (s *Scheduler) exec(l *lane) {
	e := l.pop()
	s.now = e.time
	s.executed++
	l.h.HandleEvent(e.op, e.arg)
}

// Step executes the next event and returns true, or returns false if the
// future-event list is empty.
func (s *Scheduler) Step() bool {
	l := s.next()
	if l == nil {
		return false
	}
	s.exec(l)
	return true
}

// Run executes events until the list is exhausted, the clock would pass
// `until`, or maxEvents events have run (0 means no event limit). It returns
// the reason the loop stopped.
func (s *Scheduler) Run(until float64, maxEvents uint64) StopReason {
	start := s.executed
	for {
		if maxEvents > 0 && s.executed-start >= maxEvents {
			return StoppedEventLimit
		}
		l := s.next()
		if l == nil {
			return StoppedEmpty
		}
		if l.events[0].time > until {
			return StoppedHorizon
		}
		s.exec(l)
	}
}

// RunAll executes events until none remain or maxEvents is reached (0 = no
// limit).
func (s *Scheduler) RunAll(maxEvents uint64) StopReason {
	return s.Run(math.Inf(1), maxEvents)
}

// StopReason describes why Run returned.
type StopReason int

const (
	// StoppedEmpty means the future-event list is exhausted.
	StoppedEmpty StopReason = iota
	// StoppedHorizon means the next event lies beyond the time horizon.
	StoppedHorizon
	// StoppedEventLimit means the event budget was exhausted.
	StoppedEventLimit
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StoppedEmpty:
		return "empty"
	case StoppedHorizon:
		return "horizon"
	case StoppedEventLimit:
		return "event-limit"
	default:
		return "unknown"
	}
}
