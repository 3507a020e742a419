package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// clockEvery is how often a cpuClock samples.
const clockEvery = 20 * time.Millisecond

// cpuClock samples the process CPU time in the background, so the CPU time
// the process spent in any interval of the run can be read afterwards: one
// simulate job from its start on the server to its finish, or one second
// of a phase.
type cpuClock struct {
	mu   sync.Mutex
	at   []time.Time
	cpu  []float64
	stop chan struct{}
	done chan struct{}
}

func startCPUClock() *cpuClock {
	c := &cpuClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(clockEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *cpuClock) sample() {
	cpu, now := cpuSeconds(), time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = append(c.at, now)
	c.cpu = append(c.cpu, cpu)
}

// close takes a last sample and stops the sampler.
func (c *cpuClock) close() {
	close(c.stop)
	<-c.done
	c.sample()
}

// read returns the process CPU time at t, interpolated between the samples
// around it.
func (c *cpuClock) read(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	switch {
	case i == 0:
		return c.cpu[0]
	case i == len(c.at):
		return c.cpu[len(c.cpu)-1]
	}
	span := c.at[i].Sub(c.at[i-1]).Seconds()
	f := t.Sub(c.at[i-1]).Seconds() / math.Max(span, 1e-9)
	return c.cpu[i-1] + f*(c.cpu[i]-c.cpu[i-1])
}

// between returns the process CPU seconds spent from t0 to t1.
func (c *cpuClock) between(t0, t1 time.Time) float64 { return c.read(t1) - c.read(t0) }
