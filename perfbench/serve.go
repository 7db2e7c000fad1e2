package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dagsched"
	"dagsched/internal/sched"
	"dagsched/internal/service"
)

const (
	// backlogMs marks a phase as backlogged when the median lateness of
	// its last quarter of dispatches exceeds it: a standing queue, not a
	// hiccup the generator recovered from.
	backlogMs = 50.0
	// requestTimeout bounds one request; a request that hits it failed,
	// and its latency counts as the timeout.
	requestTimeout = 10 * time.Second
	// abandonLateMs stops a phase whose generator has fallen this far
	// behind its schedule: the rate is backlogged, and sending the rest
	// would only stretch the run.
	abandonLateMs = 8 * backlogMs
)

// cluster is an in-process schedd tier: one node, or a ring of nodes
// wired with ConfigurePeers, and the client that loads it.
type cluster struct {
	servers []*service.Server
	urls    []string
	load    *http.Client // the generator's transport, capped at inflight connections per host
	observe *http.Client // /metrics reads, kept off the generator's connections
	client  *service.Client
}

// startCluster starts the nodes on ports derived from the seed: the ring
// hashes node URLs, so fixed URLs give the same key placement, and the
// same forward and tier counts, on every run with that seed. A port
// already in use moves the whole cluster to the next block.
func startCluster(nodes, inflight int, seed int64) (*cluster, error) {
	c := &cluster{
		load: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxIdleConnsPerHost: inflight, MaxConnsPerHost: inflight}},
		observe: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{}},
	}
	var err error
	for try := 0; try < 10; try++ {
		// Blocks of three ports from 10000 to 30999, below Linux's
		// ephemeral range.
		block := (int(uint64(seed)%7000) + try*1000) % 7000
		if err = c.listen(nodes, 10000+3*block); err == nil {
			break
		}
		c.close()
	}
	if err != nil {
		return nil, err
	}
	c.client = &service.Client{HTTPClient: c.load, Retry: &service.RetryPolicy{MaxAttempts: 1}}
	if nodes == 1 {
		c.client.BaseURL = c.urls[0]
		return c, nil
	}
	for i, s := range c.servers {
		if err := s.ConfigurePeers(c.urls[i], c.urls); err != nil {
			c.close()
			return nil, err
		}
	}
	c.client.Peers = c.urls
	return c, nil
}

// listen starts one schedd with default options per port from base on.
func (c *cluster) listen(nodes, base int) error {
	c.servers, c.urls = nil, nil
	for i := 0; i < nodes; i++ {
		s := service.New(service.Options{Addr: fmt.Sprintf("127.0.0.1:%d", base+i)})
		addr, err := s.Start()
		if err != nil {
			return err
		}
		c.servers = append(c.servers, s)
		c.urls = append(c.urls, "http://"+addr)
	}
	return nil
}

// close shuts every node down at once. The wait is bounded: a node's
// HTTP server waits up to 5 s for a connection a peer dialed but never
// used, and one node stopping first would set the others' failure
// detectors off.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, s := range c.servers {
		wg.Add(1)
		go func(s *service.Server) {
			defer wg.Done()
			_ = s.Shutdown(ctx) // teardown only; an unfinished drain changes no result
		}(s)
	}
	wg.Wait()
	c.load.CloseIdleConnections()
	c.observe.CloseIdleConnections()
}

// waitReady returns once every node of a ring sees all the others
// alive, so no request is routed on a partial view.
func (c *cluster) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		snaps, err := c.snapshot(ctx)
		if err != nil {
			return err
		}
		ready := true
		for _, m := range snaps {
			if len(c.servers) > 1 && (!m.Shard.Enabled || m.Cluster.Alive != len(c.servers)-1) {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("schedd ring of %d did not converge", len(c.servers))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// snapshot reads /metrics from every node.
func (c *cluster) snapshot(ctx context.Context) ([]*service.MetricsSnapshot, error) {
	out := make([]*service.MetricsSnapshot, len(c.urls))
	for i, u := range c.urls {
		m, err := (&service.Client{BaseURL: u, HTTPClient: c.observe}).Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("metrics from %s: %w", u, err)
		}
		out[i] = m
	}
	return out, nil
}

// phase is one load pass: an open loop at a fixed rate, or a closed-loop
// slice at a fixed number of requests in flight.
type phase struct {
	rate       float64
	lat        []float64 // ms to each response from its due time (open loop) or its send (closed)
	late       []float64 // ms each dispatch ran behind its due time
	rt         [3][]float64
	sent, ok   int
	status     map[string]int
	backlogged bool
}

func (p *phase) p99() float64 { return quantile(p.lat, 0.99) }

// openLoop sends requests from the sequence at a fixed rate for dur,
// starting at *cur, with at most inflight outstanding. Request i is due
// at start+i/rate and its latency runs from that due time, so a stall
// shows up in every request queued behind it. A failed request counts
// as requestTimeout. With a tracer every request is one span.
func (c *cluster) openLoop(ctx context.Context, in *inputs, cur *int, rate float64, dur time.Duration,
	inflight int, tal *tally, tr *tracer, root int) *phase {
	n := int(rate * dur.Seconds())
	ph := &phase{rate: rate, lat: make([]float64, 0, n), late: make([]float64, 0, n), status: map[string]int{}}
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, inflight)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent := time.Now()
		late := ms(sent.Sub(due))
		ph.late = append(ph.late, late)
		if late > abandonLateMs {
			<-sem
			ph.backlogged = true
			break
		}
		k := *cur
		*cur = (*cur + 1) % len(in.seq)
		r := &in.pool[in.seq[k]]
		wg.Add(1)
		go func(req int64, r *request, due, sent time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			err := r.verify(c.client.Schedule(ctx, r.req))
			done := time.Now()
			if tr != nil {
				tr.add("service.request."+classes[r.class].name, root, req, sent, done, done.Sub(sent), 1)
			}
			mu.Lock()
			defer mu.Unlock()
			ph.sent++
			ph.status[statusOf(err)]++
			if tal.check("serve", err) {
				ph.ok++
				ph.lat = append(ph.lat, ms(done.Sub(due)))
				ph.rt[r.class] = append(ph.rt[r.class], ms(done.Sub(sent)))
			} else {
				ph.lat = append(ph.lat, ms(requestTimeout))
			}
		}(int64(k+1), r, due, sent)
	}
	wg.Wait()
	// A standing queue at the end of the phase means the generator fell
	// behind for good; a hiccup it recovered from does not.
	if tail := ph.late[len(ph.late)*3/4:]; len(tail) > 0 && median(tail) > backlogMs {
		ph.backlogged = true
	}
	return ph
}

// verify fails a response whose makespan differs from the library's.
func (r *request) verify(resp *service.ScheduleResponse, err error) error {
	if err == nil && resp.Makespan != r.want {
		return wrong(fmt.Errorf("%s response makespan %v, library %v", classes[r.class].name, resp.Makespan, r.want))
	}
	return err
}

// statusOf names a request outcome as the client saw it.
func statusOf(err error) string {
	var se *service.StatusError
	switch {
	case err == nil:
		return "200"
	case errors.As(err, &se) && se.Status == http.StatusServiceUnavailable:
		return "503"
	default:
		return "other"
	}
}

// closedLoop keeps inflight requests outstanding for dur: each worker
// sends the next request of the sequence as soon as its last one has
// returned. It returns the requests as a phase, latency timed from each
// send, and the process CPU time (client and servers) from the start
// until the last one returned.
func (c *cluster) closedLoop(ctx context.Context, in *inputs, cur *int, dur time.Duration, inflight int,
	tal *tally) (*phase, time.Duration) {
	ph := &phase{status: map[string]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu := processCPU()
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				r := &in.pool[in.seq[*cur]]
				*cur = (*cur + 1) % len(in.seq)
				mu.Unlock()
				sent := time.Now()
				err := r.verify(c.client.Schedule(ctx, r.req))
				done := time.Now()
				mu.Lock()
				ph.sent++
				ph.status[statusOf(err)]++
				if tal.check("serve", err) {
					ph.ok++
					ph.lat = append(ph.lat, ms(done.Sub(sent)))
				} else {
					ph.lat = append(ph.lat, ms(requestTimeout))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ph, processCPU() - cpu
}

// serveLoads are the two loads latency is reported at, as requests in
// flight: one (low), and nproc (high), the most the benchmark keeps
// outstanding. serve_capacity_rps is the throughput nproc CPUs give at
// the high load: nproc times the requests completed per CPU second.
// Wall-clock throughput over the same slices spread as much as the
// host's speed (15-35% across runs), CPU-bound throughput as much as the
// kernel's CPU times.
func serveLoads(inflight int) map[string]int { return map[string]int{"low": 1, "high": inflight} }

// Shares of the serving time, in percent: a warm-up, then cycles of one
// slice at each load, each slice between two reference units.
const (
	warmShare  = 8
	sliceShare = 8
)

// serveSamples is one run's serving measurements: per load the slices'
// requests pooled, latencies calibrated; per high-load slice the
// calibrated and the raw CPU-bound throughput.
type serveSamples struct {
	phases                map[string]*phase
	raw                   map[string][]float64 // uncalibrated latencies, for the context lines
	capacity, rawCapacity []float64
	steal                 float64
}

// settle lets the previous slice's background work (replica pushes,
// handler tails) finish and starts the next one on a collected heap, so
// no slice pays for its predecessor.
func settle() {
	time.Sleep(100 * time.Millisecond)
	runtime.GC()
}

// runServe warms the tier with an open-loop pass at 280 req/s, then
// repeats cycles of a high-load and a low-load closed-loop slice until
// the serving time is spent, continuing one request sequence. Cycling
// spreads each metric's samples over the whole serving time. The loads
// are closed loops: on the shared VM an open loop's latency, even at a
// quarter of capacity, grew several times over whenever the host took
// CPU away, because the queue grew with it; a closed loop's latency
// grows only as much as the host slows.
//
// Each slice runs between two reference units and is scaled by the
// median CPU time of those and the serveWindow units on either side.
// CPU time, because steal comes in bursts that a reference unit's wall
// time catches or misses by chance, which made the scale noisier than
// the latencies it was to steady.
func runServe(ctx context.Context, c *cluster, in *inputs, budget time.Duration, inflight int,
	tal *tally, cal *calibrator) serveSamples {
	out := serveSamples{phases: map[string]*phase{}, raw: map[string][]float64{}}
	steal := readCPU()
	cur := 0
	start := time.Now()
	c.openLoop(ctx, in, &cur, 280, budget*warmShare/100, inflight, tal, nil, 0)
	loads := serveLoads(inflight)
	slice := budget * sliceShare / 100
	type timedSlice struct {
		name string
		ph   *phase
		cpu  time.Duration
		i, j int // reference units before and after
	}
	var slices []timedSlice
	cpus := float64(runtime.NumCPU())
	for cycle := 0; cycle < 2 || time.Since(start) < budget-2*slice; cycle++ {
		for _, name := range []string{"high", "low"} {
			ts := timedSlice{name: name, i: cal.mark()}
			cal.around(func() {
				settle()
				ts.ph, ts.cpu = c.closedLoop(ctx, in, &cur, slice, loads[name], tal)
			})
			ts.j = cal.mark()
			slices = append(slices, ts)
		}
	}
	for k := 0; k < serveWindow; k++ {
		cal.ref()
	}
	for _, ts := range slices {
		f := cal.window(ts.i, ts.j, serveWindow)
		ph := ts.ph
		out.raw[ts.name] = append(out.raw[ts.name], ph.lat...)
		for i := range ph.lat {
			ph.lat[i] *= f
		}
		if ts.name == "high" {
			rps := cpus * float64(ph.ok) / ts.cpu.Seconds()
			out.capacity = append(out.capacity, rps/f)
			out.rawCapacity = append(out.rawCapacity, rps)
		}
		if all := out.phases[ts.name]; all != nil {
			all.merge(ph)
		} else {
			out.phases[ts.name] = ph
		}
	}
	out.steal = steal.since()
	return out
}

// serveWindow is how many reference units on either side of a serving
// slice its scale also takes into account.
const serveWindow = 2

// merge pools another slice at the same rate into p.
func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	for k := range p.rt {
		p.rt[k] = append(p.rt[k], q.rt[k]...)
	}
	p.sent += q.sent
	p.ok += q.ok
	for code, n := range q.status {
		p.status[code] += n
	}
	p.backlogged = p.backlogged || q.backlogged
}

// counters is the sum over nodes of the /metrics counters the traced
// run reports as deltas.
type counters struct {
	coalesced, shed                       float64
	forwards, forwardFailures             float64
	probeHits, probeMisses, probeTimeouts float64
	local, replica, peer, miss            float64
	pushes, pushFailures, stores, handoff float64
	runtimeSum, runtimeN                  map[string]float64
}

func sumCounters(snaps []*service.MetricsSnapshot) counters {
	c := counters{runtimeSum: map[string]float64{}, runtimeN: map[string]float64{}}
	for _, m := range snaps {
		c.coalesced += float64(m.Requests.Coalesced)
		c.shed += float64(m.Requests.Shed)
		for _, v := range m.Shard.Forwards {
			c.forwards += float64(v)
		}
		for _, v := range m.Shard.ForwardFailures {
			c.forwardFailures += float64(v)
		}
		c.probeHits += float64(m.Shard.Probe.Hits)
		c.probeMisses += float64(m.Shard.Probe.Misses)
		c.probeTimeouts += float64(m.Shard.Probe.Timeouts)
		c.local += float64(m.Cache.Tier.Local)
		c.replica += float64(m.Cache.Tier.Replica)
		c.peer += float64(m.Cache.Tier.Peer)
		c.miss += float64(m.Cache.Tier.Miss)
		c.pushes += float64(m.Cluster.Replica.Pushes)
		c.pushFailures += float64(m.Cluster.Replica.PushFailures)
		c.stores += float64(m.Cluster.Replica.Stores)
		c.handoff += float64(m.Cluster.Handoff.Queued)
		for alg, st := range m.Algorithms {
			c.runtimeSum[alg] += st.Runtime.Mean * float64(st.Runtime.N)
			c.runtimeN[alg] += float64(st.Runtime.N)
		}
	}
	return c
}

// countPass sends the first k requests of the sequence one at a time
// and returns the /metrics counter deltas. One request in flight, and
// waiting after each until its replica pushes have landed, makes every
// count a function of the seed alone.
func (c *cluster) countPass(ctx context.Context, in *inputs, k int, tal *tally) (counters, counters, error) {
	snaps, err := c.snapshot(ctx)
	if err != nil {
		return counters{}, counters{}, err
	}
	before := sumCounters(snaps)
	fanout := math.Min(2, float64(len(c.servers)-1)) // default replication: two successors
	var after counters
	for i := 0; i < k; i++ {
		r := &in.pool[in.seq[i%len(in.seq)]]
		tal.check("serve count pass", r.verify(c.client.Schedule(ctx, r.req)))
		for wait := time.Now(); ; time.Sleep(2 * time.Millisecond) {
			snaps, err := c.snapshot(ctx)
			if err != nil {
				return counters{}, counters{}, err
			}
			after = sumCounters(snaps)
			pushed := after.pushes + after.pushFailures - before.pushes - before.pushFailures
			if (pushed >= fanout*(after.miss-before.miss) && after.stores == after.pushes) ||
				time.Since(wait) > 2*time.Second {
				break
			}
		}
	}
	return before, after, nil
}

// replayClasses times, per request class, the public calls the handler
// and client make for one request: encoding the request, reading the
// instance, hashing its canonical form and computing the schedule.
func replayClasses(in *inputs, perClass int, tal *tally) (enc, read, canon, compute, size [3][]float64) {
	for i := range in.pool {
		r := &in.pool[i]
		c := r.class
		if len(read[c]) >= perClass {
			continue
		}
		var body []byte
		var inst *sched.Instance
		var err error
		d := timeIt(func() { body, err = json.Marshal(r.req) })
		if !tal.check("replay encode", err) {
			continue
		}
		enc[c] = append(enc[c], ms(d))
		size[c] = append(size[c], float64(len(body)))
		d = timeIt(func() { inst, err = sched.ReadInstanceJSON(bytes.NewReader(r.req.Instance)) })
		if !tal.check("replay read", err) {
			continue
		}
		read[c] = append(read[c], ms(d))
		d = timeIt(func() {
			h := sha256.New()
			err = inst.WriteJSON(h)
			h.Sum(nil)
		})
		if !tal.check("replay canon", err) {
			continue
		}
		canon[c] = append(canon[c], ms(d))
		a, err := dagsched.AlgorithmByName(r.req.Algorithm)
		if err != nil {
			panic(err)
		}
		var s *sched.Schedule
		d = timeIt(func() { s, err = a.Schedule(inst) })
		if err == nil && s.Makespan() != r.want {
			err = wrong(fmt.Errorf("replayed %s makespan %v, expected %v", classes[c].name, s.Makespan(), r.want))
		}
		if tal.check("replay compute", err) {
			compute[c] = append(compute[c], ms(d))
		}
	}
	return
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// tracedRate is the rate of the traced run's open-loop pass: about half
// the 3-node ring's capacity on a 2-core Xeon VM, below the knee on both
// workloads.
const tracedRate = 140.0

// traceServe produces the per-layer serving metrics: exact /metrics
// deltas from a sequential count pass, per-class call costs from a
// replay of the request bytes, and per-class round trips, queue depth
// and statuses from a traced open-loop pass at tracedRate.
func traceServe(ctx context.Context, c *cluster, in *inputs, sz sizes, budget time.Duration, inflight int,
	tr *tracer, tal *tally, out metrics) error {
	before, after, err := c.countPass(ctx, in, sz.countReqs, tal)
	if err != nil {
		return err
	}
	d := func(f func(counters) float64) float64 { return f(after) - f(before) }
	hits := d(func(c counters) float64 { return c.local + c.replica + c.peer })
	misses := d(func(c counters) float64 { return c.miss })
	out.set("service.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	out.set("service.coalesced", d(func(c counters) float64 { return c.coalesced }), "count")
	out.set("cluster.forward_ratio", ratio(d(func(c counters) float64 { return c.forwards }), float64(sz.countReqs)), "ratio")
	out.set("cluster.forward_failures", d(func(c counters) float64 { return c.forwardFailures }), "count")
	out.set("cluster.probe.hits", d(func(c counters) float64 { return c.probeHits }), "count")
	out.set("cluster.probe.misses", d(func(c counters) float64 { return c.probeMisses }), "count")
	out.set("cluster.probe.timeouts", d(func(c counters) float64 { return c.probeTimeouts }), "count")
	out.set("cluster.tier.local", d(func(c counters) float64 { return c.local }), "count")
	out.set("cluster.tier.replica", d(func(c counters) float64 { return c.replica }), "count")
	out.set("cluster.tier.peer", d(func(c counters) float64 { return c.peer }), "count")
	out.set("cluster.tier.miss", misses, "count")
	out.set("cluster.replica.pushes", d(func(c counters) float64 { return c.pushes }), "count")
	out.set("cluster.replica.push_failures", d(func(c counters) float64 { return c.pushFailures }), "count")
	out.set("cluster.handoff.queued", d(func(c counters) float64 { return c.handoff }), "count")
	for _, alg := range []string{"HEFT", "ILS"} {
		sum := after.runtimeSum[alg] - before.runtimeSum[alg]
		out.set("service.server_runtime_ms."+alg, ratio(sum, after.runtimeN[alg]-before.runtimeN[alg]), "ms")
	}

	enc, read, canon, compute, size := replayClasses(in, 30, tal)

	// The traced pass, with /metrics sampled for the deepest queue.
	snaps, err := c.snapshot(ctx)
	if err != nil {
		return err
	}
	shedBefore := sumCounters(snaps).shed
	var depth int
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if snaps, err := c.snapshot(ctx); err == nil {
				for _, m := range snaps {
					depth = max(depth, m.Queue.Depth)
				}
			}
		}
	}()
	root := tr.begin("service.open_loop.high", 0, 0)
	cur := sz.countReqs
	ph := c.openLoop(ctx, in, &cur, tracedRate, budget, inflight, tal, tr, root)
	tr.finish(root)
	close(stop)
	<-sampled
	if snaps, err = c.snapshot(ctx); err != nil {
		return err
	}
	out.set("service.shed", sumCounters(snaps).shed-shedBefore, "count")
	out.set("service.queue_depth_max", float64(depth), "count")
	for _, code := range []string{"200", "503", "other"} {
		out.set("service.status."+code, float64(ph.status[code]), "count")
	}
	out.set("generator_late_ms_p99", quantile(ph.late, 0.99), "ms")
	for k, cl := range classes {
		out.set("service.client_encode_ms."+cl.name, median(enc[k]), "ms")
		out.set("request_bytes."+cl.name, median(size[k]), "bytes")
		out.set("sched.read_instance_ms."+cl.name, median(read[k]), "ms")
		out.set("sched.canon_ms."+cl.name, median(canon[k]), "ms")
		out.set("compute_ms."+cl.name, median(compute[k]), "ms")
		rt := median(ph.rt[k])
		out.set("service.roundtrip_ms."+cl.name, rt, "ms")
		out.set("service.derived_wait_ms."+cl.name, rt-median(read[k])-median(canon[k])-median(compute[k]), "ms")
	}
	return nil
}
