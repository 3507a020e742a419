package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process at
// rate per second over [0, span): independent users, so an open loop.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * 1e9)
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

// spinMargin is how early the kernel sleep in waitUntil ends: nanosleep
// overshoots by about the 50 µs default timer slack.
const spinMargin = 80 * time.Microsecond

// waitUntil blocks until t. time.Sleep overshoots by 0.5–1 ms (the runtime
// timer parks in epoll with millisecond resolution), several times the
// service time of a cache hit; so it sleeps in the kernel to just before t
// and yields the processor for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep ends early; the loop below finishes the wait.
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// shot is one open-loop request and what became of it.
type shot struct {
	due time.Duration // offset of its due time from the run's start
	// late is the generator's own lateness: send time minus the later of
	// the due time and the moment its connection became free. Waiting for a
	// busy connection is the system's backlog and is not counted here.
	late time.Duration
	// latency runs from the due time to the end of the response, so a
	// stall also charges the requests queued behind it.
	latency time.Duration
	service time.Duration // send to end of response
	sent    bool
	ok      bool
	hit     bool
}

// openLoop sends requests on a fixed schedule over conns connections. Each
// connection takes the next due request when it is free, so a slow response
// delays the requests behind it instead of slowing the schedule.
type openLoop struct {
	start  time.Time
	due    []time.Duration
	conns  int
	cutoff time.Time // requests not sent by then are abandoned
	// send performs request i on connection conn and reports whether the
	// response was a cache hit.
	send func(conn, i int) (hit bool, err error)
}

func (o *openLoop) run() []shot {
	shots := make([]shot, len(o.due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := o.start
			for {
				i := int(next.Add(1) - 1)
				if i >= len(o.due) {
					return
				}
				due := o.start.Add(o.due[i])
				waitUntil(due)
				sent := time.Now()
				shots[i].due = o.due[i]
				if sent.After(o.cutoff) {
					continue
				}
				ready := due
				if free.After(ready) {
					ready = free
				}
				hit, err := o.send(c, i)
				done := time.Now()
				free = done
				shots[i] = shot{
					due: o.due[i], late: sent.Sub(ready), latency: done.Sub(due),
					service: done.Sub(sent), sent: true, ok: err == nil, hit: hit,
				}
			}
		}()
	}
	wg.Wait()
	return shots
}

// loopStats summarizes a slice of shots. A request that failed or was never
// sent counts with latency penalty: it missed every limit.
type loopStats struct {
	n, failed     int
	latencyMs     []float64
	hitMs, missMs []float64 // service times of answered requests by X-Cache
	lateMs        []float64
}

func summarize(shots []shot, penalty time.Duration) loopStats {
	var s loopStats
	s.n = len(shots)
	for _, sh := range shots {
		lat := sh.latency
		if !sh.ok {
			s.failed++
			lat = penalty
		}
		s.latencyMs = append(s.latencyMs, ms(lat))
		if sh.ok {
			if sh.hit {
				s.hitMs = append(s.hitMs, ms(sh.service))
			} else {
				s.missMs = append(s.missMs, ms(sh.service))
			}
		}
		if sh.sent {
			s.lateMs = append(s.lateMs, ms(sh.late))
		}
	}
	return s
}

// statWindow is the span of due times each per-window percentile covers.
const statWindow = time.Second

// windowPercentiles returns, for each statWindow of due times, percentile q
// (per-ten-thousand) of its requests' times in ms as val reads them, a
// failed request counting as penalty.
func windowPercentiles(shots []shot, penalty time.Duration, q int, val func(shot) time.Duration) []float64 {
	var out, cur []float64
	end := statWindow
	flush := func() {
		if len(cur) > 0 {
			out = append(out, percentile(cur, q))
		}
		cur = nil
	}
	for _, sh := range shots {
		for sh.due >= end {
			flush()
			end += statWindow
		}
		lat := penalty
		if sh.ok {
			lat = val(sh)
		}
		cur = append(cur, ms(lat))
	}
	flush()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
