package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// Submission pattern of serve-mixed: every sweepEvery-th submission is a
// small /v1/sweep stream and every repeatEvery-th of the others repeats an
// earlier simulate request.
const (
	sweepEvery  = 10
	repeatEvery = 4
	pollEvery   = 20 * time.Millisecond
	sweepRows   = 4
)

// jobKinds are the simulate jobs serve-mixed cycles through, all at the
// paper's 10000/100000/10000 methodology and half the model's saturation
// load.
var jobKinds = []struct{ org, topo string }{
	{"org1", ""}, {"org2", ""}, {"org1", "jellyfish"}, {"org2", "jellyfish"},
}

// jobDoc is the part of GET /v1/jobs/{id} the benchmark reads.
type jobDoc struct {
	Status      string          `json:"status"`
	Created     time.Time       `json:"created"`
	Started     time.Time       `json:"started"`
	Finished    time.Time       `json:"finished"`
	WallTimeSec float64         `json:"wall_time_sec"`
	Result      json.RawMessage `json:"result"`
	Error       string          `json:"error"`
}

// submission is one /v1/simulate request and its fate.
type submission struct {
	body      []byte
	repeat    int // index of the submission it repeats, -1 for none
	kind      int // index into jobKinds
	id        string
	sent      time.Time
	acked     time.Time
	span      int32
	doc       jobDoc
	done      bool
	dedup     bool // the server answered X-Cache: hit
	elapsed   time.Duration
	delivered int // measured messages of an executed job
}

// simClient submits simulate jobs and sweeps over one connection.
type simClient struct {
	r    *run
	c    *conn
	rng  *rand.Rand
	sats map[string]float64

	subs     []*submission
	inflight []*submission
	rejected int
	// sweep figures
	sweepFirst []float64
	sweepRate  []float64
	delivered  float64
}

func (s *simClient) submit(k int) error {
	sub := &submission{repeat: -1}
	var originals []int
	for i, p := range s.subs {
		if p.repeat < 0 {
			originals = append(originals, i)
		}
	}
	if k%repeatEvery == repeatEvery-1 && len(originals) > 0 {
		sub.repeat = originals[s.rng.IntN(len(originals))]
		sub.body, sub.kind = s.subs[sub.repeat].body, s.subs[sub.repeat].kind
	} else {
		sub.kind = len(originals) % len(jobKinds)
		kind := jobKinds[sub.kind]
		body, err := json.Marshal(map[string]any{
			"org": kind.org, "topo": kind.topo, "lambda": 0.5 * s.sats[kind.org], "seed": s.rng.Uint64()>>1 | 1,
		})
		if err != nil {
			return err
		}
		sub.body = body
	}
	sub.span = s.r.tr.begin("serve.simulate_job", 0)
	sub.sent = time.Now()
	rep, err := s.c.do("POST", "/v1/simulate", sub.body)
	sub.acked = time.Now()
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	s.r.attempted++
	switch rep.status {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests:
		s.rejected++
		s.r.failed++
		s.r.tr.end(sub.span)
		return nil
	default:
		return fmt.Errorf("simulate: status %d: %s", rep.status, rep.body)
	}
	var ref struct{ ID string }
	if err := json.Unmarshal(rep.body, &ref); err != nil {
		return fmt.Errorf("simulate answer: %w", err)
	}
	sub.id, sub.dedup = ref.ID, rep.cache == "hit"
	if sub.repeat >= 0 {
		orig := s.subs[sub.repeat]
		s.r.check(sub.id == orig.id, "resubmitted simulate request got job %s, first %s", sub.id, orig.id)
	}
	s.subs = append(s.subs, sub)
	s.inflight = append(s.inflight, sub)
	return nil
}

// poll refreshes the jobs in flight and retires the finished ones.
func (s *simClient) poll() error {
	keep := s.inflight[:0]
	for _, sub := range s.inflight {
		rep, err := s.c.do("GET", "/v1/jobs/"+sub.id, nil)
		if err != nil {
			return fmt.Errorf("job poll: %w", err)
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("job poll: status %d: %s", rep.status, rep.body)
		}
		if err := json.Unmarshal(rep.body, &sub.doc); err != nil {
			return fmt.Errorf("job document: %w", err)
		}
		switch sub.doc.Status {
		case "done", "failed":
			s.retire(sub)
		default:
			keep = append(keep, sub)
		}
	}
	s.inflight = keep
	return nil
}

func (s *simClient) retire(sub *submission) {
	s.r.tr.end(sub.span)
	sub.done = true
	// A job finished before its submission was answered (a repeat of a
	// finished job) was done when the answer arrived.
	end := sub.doc.Finished
	if end.Before(sub.acked) {
		end = sub.acked
	}
	sub.elapsed = end.Sub(sub.sent)
	if sub.doc.Status != "done" {
		s.r.failed++
		s.r.check(false, "simulate job %s failed: %s", sub.id, sub.doc.Error)
		return
	}
	if sub.repeat >= 0 {
		orig := s.subs[sub.repeat]
		s.r.check(!orig.done || bytes.Equal(orig.doc.Result, sub.doc.Result),
			"resubmitted simulate job %s: result differs from the first", sub.id)
		return
	}
	if !sub.dedup {
		var o struct{ Delivered int }
		if err := json.Unmarshal(sub.doc.Result, &o); err == nil {
			sub.delivered = o.Delivered
			s.delivered += float64(o.Delivered)
		}
		s.r.check(o.Delivered > 0, "simulate job %s delivered no measured message", sub.id)
	}
}

// sweep streams a small /v1/sweep and checks its rows.
func (s *simClient) sweep() error {
	sat := s.sats["org2"]
	lambdas := make([]float64, sweepRows)
	for i := range lambdas {
		lambdas[i] = sat * (0.2 + 0.15*float64(i))
	}
	spec, err := json.Marshal(map[string]any{
		"name": "bench", "orgs": []string{"org2"}, "loads": map[string]any{"lambdas": lambdas},
		"warmup": 200, "measure": 2000, "drain": 200, "base_seed": s.rng.Uint64()>>1 | 1,
	})
	if err != nil {
		return err
	}
	id := s.r.tr.begin("serve.sweep", 0)
	defer s.r.tr.end(id)
	s.r.attempted++
	sent := time.Now()
	resp, err := s.c.send("POST", "/v1/sweep", spec)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		s.rejected++
		s.r.failed++
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sweep: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	rows := 0
	var first time.Duration
	for sc.Scan() {
		if rows == 0 {
			first = time.Since(sent)
		}
		var row struct {
			Error     *string `json:"error"`
			Delivered int     `json:"delivered"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return fmt.Errorf("sweep row: %w", err)
		}
		s.r.check(row.Error == nil, "sweep stream error: %s", sc.Bytes())
		s.delivered += float64(row.Delivered)
		rows++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sweep stream: %w", err)
	}
	total := time.Since(sent)
	ok := rows == sweepRows
	s.r.check(ok, "sweep streamed %d rows, want %d", rows, sweepRows)
	if !ok {
		s.r.failed++
	}
	s.sweepFirst = append(s.sweepFirst, first.Seconds())
	s.sweepRate = append(s.sweepRate, float64(rows)/total.Seconds())
	return nil
}

// serveMixed runs simulate jobs and sweeps over one connection beside the
// analyze mix at a fixed rate on a second one.
func serveMixed(r *run) error {
	known, err := knownOrgs()
	if err != nil {
		return err
	}
	// The service gets one queue worker fewer than the host has CPUs, and
	// the client keeps one job more in flight than there are workers: every
	// worker stays busy, a job always waits in the queue, and one CPU is
	// left to the read path. With a simulation on every CPU the analyze
	// handlers wait for preemption (up to 10 ms a hop) and the 1000 req/s
	// stream backs up without bound.
	workers := max(1, runtime.NumCPU()-1)
	inFlight := workers + 1
	var load *analyzeLoad
	svc, setupCPU, setupWall, err := setupMedian(setupReps, func() (*service, error) {
		svc, err := startService(workers)
		if err != nil {
			return nil, err
		}
		load = newAnalyzeLoad(r, known)
		return svc, load.warm(svc.addr)
	}, (*service).close)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer svc.close()
	simConn, anConn := newConn(svc.addr), newConn(svc.addr)
	defer simConn.close()
	defer anConn.close()
	r.reportSetup(setupCPU, setupWall)

	sats := map[string]float64{}
	for _, k := range known {
		sats[k.spec] = k.sat
	}
	sim := &simClient{r: r, c: simConn, rng: rand.New(rand.NewPCG(r.seed, 0x73696d)), sats: sats}

	var shots []shot
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		shots, _ = load.phase(mixedRate, r.window, []*conn{anConn})
	}()
	start := time.Now()
	clock := startCPUClock()
	simErr := func() error {
		for k := 0; time.Since(start) < r.window; {
			for len(sim.inflight) < inFlight && time.Since(start) < r.window {
				var err error
				if k%sweepEvery == sweepEvery-1 {
					err = sim.sweep()
				} else {
					err = sim.submit(k)
				}
				k++
				if err != nil {
					return err
				}
			}
			time.Sleep(pollEvery)
			if err := sim.poll(); err != nil {
				return err
			}
		}
		for deadline := time.Now().Add(30 * time.Second); len(sim.inflight) > 0; time.Sleep(pollEvery) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d simulate jobs still running 30 s after the window", len(sim.inflight))
			}
			if err := sim.poll(); err != nil {
				return err
			}
		}
		return nil
	}()
	simWall := time.Since(start)
	clock.close()
	wg.Wait()
	if simErr != nil {
		return simErr
	}

	an := evaluate(shots, r.window)
	r.attempted += an.n
	r.failed += an.failed
	// The analyze stream beside the jobs is printed, not gated: on a 2-vCPU
	// VM it follows the host's other tenants more than the program (its p50
	// moved 3× between runs minutes apart).
	reportAnalyze(r, an)

	var jobSecs, queue, exec, rates []float64
	kindCPU := make([][]float64, len(jobKinds))
	var dedup, subs int
	for _, sub := range sim.subs {
		subs++
		if sub.dedup {
			dedup++
		}
		if !sub.done {
			continue
		}
		jobSecs = append(jobSecs, sub.elapsed.Seconds())
		if sub.repeat < 0 && !sub.dedup {
			queue = append(queue, sub.doc.Started.Sub(sub.doc.Created).Seconds())
			exec = append(exec, sub.doc.WallTimeSec)
			rates = append(rates, float64(sub.delivered)/sub.doc.WallTimeSec)
			kindCPU[sub.kind] = append(kindCPU[sub.kind], clock.between(sub.doc.Started, sub.doc.Finished))
		}
	}
	r.check(len(queue) > 0, "no simulate job finished within the window")
	// The simulate job latency, submit until done, and the upper quartile
	// over executed jobs of each job's measured messages per second of
	// execution are printed; they move with the host's steal.
	sec := append([]float64(nil), jobSecs...)
	r.named("sim_job_tail_s", percentile(sec, tailPercentile(len(sec), 9500)), "s")
	// Gated: the process CPU time over an executed job, from its start on
	// the server to its finish: the median over the jobs of each kind, then
	// the mean over the kinds, so the mix of kinds a window finishes does not
	// move it. The analyze stream and the client's polls run meanwhile and
	// are included; a sweep running beside a job inflates that job alone.
	var perKind []float64
	for _, c := range kindCPU {
		if len(c) > 0 {
			perKind = append(perKind, median(c))
		}
	}
	r.endToEnd("cpu_ms_per_op", mean(perKind)*1e3, "ms")
	r.named("sim_job_rate_p75", percentile(rates, 7500), "msg/s")
	r.named("sim_msgs_per_s", sim.delivered/simWall.Seconds(), "msg/s")
	r.named("sim_job_p50_s", median(jobSecs), "s")
	r.named("sim_jobs", float64(len(jobSecs)), "count")
	r.named("sweeps", float64(len(sim.sweepFirst)), "count")
	if r.tr != nil {
		r.layer("serve.queue_wait_s", median(queue), "s")
		r.layer("serve.job_exec_s", median(exec), "s")
		r.layer("serve.dedup_ratio", float64(dedup)/float64(max(subs, 1)), "ratio")
		r.layer("serve.rejected_429", float64(sim.rejected), "count")
		r.layer("serve.sweep_first_row_s", median(sim.sweepFirst), "s")
		r.layer("serve.sweep_rows_per_s", median(sim.sweepRate), "1/s")
	}
	return load.finish()
}
