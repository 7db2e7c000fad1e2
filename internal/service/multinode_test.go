package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dagsched/internal/service"
	"dagsched/internal/testfix"
)

// startCluster launches n in-process nodes on ephemeral ports and joins
// them into one consistent-hash ring. Returns the servers and their
// base URLs (ring identities).
func startCluster(t *testing.T, n int, opts service.Options) ([]*service.Server, []string) {
	t.Helper()
	servers := make([]*service.Server, n)
	urls := make([]string, n)
	for i := range servers {
		o := opts
		o.Addr = "127.0.0.1:0"
		servers[i] = service.New(o)
		addr, err := servers[i].Start()
		if err != nil {
			t.Fatalf("node %d Start: %v", i, err)
		}
		urls[i] = "http://" + addr
	}
	for i, s := range servers {
		if err := s.ConfigurePeers(urls[i], urls); err != nil {
			t.Fatalf("node %d ConfigurePeers: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = s.Shutdown(ctx)
			cancel()
		}
	})
	return servers, urls
}

// postSchedule sends one raw /v1/schedule request and decodes the body,
// returning the response headers for shard assertions.
func postSchedule(t *testing.T, base string, req service.ScheduleRequest) (*service.ScheduleResponse, http.Header) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("POST %s: HTTP %d: %s", base, resp.StatusCode, buf.String())
	}
	var out service.ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &out, resp.Header
}

// scheduleDigest is the part of a response that must be identical no
// matter which ring node answered.
func scheduleDigest(t *testing.T, r *service.ScheduleResponse) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Makespan    float64                  `json:"makespan"`
		SLR         float64                  `json:"slr"`
		Assignments []service.AssignmentJSON `json:"assignments"`
	}{r.Makespan, r.SLR, r.Assignments})
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return string(data)
}

// TestMultiNodeForwarding runs a 3-node ring behind plain (BaseURL)
// clients, which send each request to whichever node they know. Every
// entry node must agree on each key's owner (X-Shard-Owner) and answer
// byte-identical schedules to a standalone server; a miss is served
// where it lands, and once its replica pushes have landed a second
// round through every node computes nothing.
func TestMultiNodeForwarding(t *testing.T) {
	_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32})
	_, ref := startServer(t, service.Options{Workers: 2}) // single-node reference

	inst := instanceJSON(t, testfix.Topcuoglu())
	algs := []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS"}
	want := make(map[string]string, len(algs))
	for _, alg := range algs {
		req := service.ScheduleRequest{Algorithm: alg, Instance: inst}
		refResp, err := ref.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("reference %s: %v", alg, err)
		}
		want[alg] = scheduleDigest(t, refResp)
	}
	round := func() {
		for _, alg := range algs {
			var owner string
			for i, base := range urls {
				resp, hdr := postSchedule(t, base, service.ScheduleRequest{Algorithm: alg, Instance: inst})
				if got := scheduleDigest(t, resp); got != want[alg] {
					t.Errorf("%s via node %d: schedule differs from single-node reference", alg, i)
				}
				o := hdr.Get("X-Shard-Owner")
				if o == "" {
					t.Fatalf("%s via node %d: no X-Shard-Owner header", alg, i)
				}
				if owner == "" {
					owner = o
				} else if o != owner {
					t.Errorf("%s: node %d names owner %q, earlier nodes %q — ring views disagree", alg, i, o, owner)
				}
				if sb := hdr.Get("X-Served-By"); sb != base {
					t.Errorf("%s via node %d: served by %q, want the entry node %q", alg, i, sb, base)
				}
			}
		}
	}
	round()
	// Replication (R=2 on 3 nodes) puts every key on every node.
	waitFor(t, 10*time.Second, "replica pushes on every node", func() error {
		for i, u := range urls {
			snap, err := fetchMetrics(u)
			if err != nil {
				return err
			}
			if snap.Cache.Size < len(algs) {
				return fmt.Errorf("node %d cache size %d < %d", i, snap.Cache.Size, len(algs))
			}
		}
		return nil
	})
	before := ringCompute(t, urls)
	round()
	if after := ringCompute(t, urls); after != before {
		t.Errorf("second round recomputed: %d runs before, %d after", before, after)
	}
}

// TestMultiNodePeerCacheHit pins the middle cache tier: a batch item
// whose key is owned by another node finds that node's cached result
// via the /v1/cache probe instead of recomputing. Replication keeps the
// owner copy only: a replica pushed to the probing node would turn the
// probe into a local hit, which is exactly what this test must not
// conflate (cluster_test.go covers replicas).
func TestMultiNodePeerCacheHit(t *testing.T) {
	servers, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32, Replication: -1})
	inst := instanceJSON(t, testfix.Topcuoglu())
	req := service.ScheduleRequest{Algorithm: "HEFT", Instance: inst}

	// Compute once through node 0; if node 0 is not the owner, its
	// replica push puts the result at the owner.
	warm, hdr := postSchedule(t, urls[0], req)
	owner := hdr.Get("X-Shard-Owner")
	ownerIdx := -1
	for i, u := range urls {
		if u == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %q not among cluster URLs %v", owner, urls)
	}
	waitFor(t, 10*time.Second, "the result at the owner", func() error {
		snap, err := fetchMetrics(owner)
		if err != nil {
			return err
		}
		if snap.Cache.Size < 1 {
			return fmt.Errorf("owner cache empty")
		}
		return nil
	})

	// A batch through a node that does NOT own the key: its local LRU is
	// cold (unless it was the entry node that kept a copy), so the item
	// must come back via the owner's cache.
	probeIdx := (ownerIdx + 1) % len(servers)
	if probeIdx == 0 {
		probeIdx = (ownerIdx + 2) % len(servers) // node 0 may hold a local copy from warming
	}
	c := &service.Client{BaseURL: urls[probeIdx]}
	bresp, err := c.ScheduleBatch(context.Background(), service.BatchRequest{Items: []service.ScheduleRequest{req}})
	if err != nil {
		t.Fatalf("batch via node %d: %v", probeIdx, err)
	}
	if bresp.Failed != 0 {
		t.Fatalf("batch item failed: %+v", bresp.Items)
	}
	item := bresp.Items[0].Response
	if !item.Cached {
		t.Errorf("batch item not served from cache (cached=%v)", item.Cached)
	}
	if item.Makespan != warm.Makespan {
		t.Errorf("peer-cache makespan %v != computed %v", item.Makespan, warm.Makespan)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.Cache.Tier.Peer < 1 {
		t.Errorf("node %d cache.tier.peer = %d, want >= 1 (batch item must have probed the owner)", probeIdx, snap.Cache.Tier.Peer)
	}
	if !snap.Shard.Enabled || snap.Shard.Self != urls[probeIdx] {
		t.Errorf("shard snapshot = %+v, want enabled with self %q", snap.Shard, urls[probeIdx])
	}
}

// TestMultiNodeFailover kills a key's owner: a node that never saw the
// key must keep answering it by computing locally after its probe of
// the dead owner fails, and the failed probe must surface in its
// shard.probe metrics. Replication keeps the owner copy only, so no
// survivor holds a replica to hide the probe (the replicated path is
// cluster_test.go's job).
func TestMultiNodeFailover(t *testing.T) {
	servers, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32, Replication: -1})
	inst := instanceJSON(t, testfix.Topcuoglu())

	// Find an algorithm whose key is NOT owned by node 0, so a third
	// node is neither the entry nor the owner.
	algs := []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS", "MCP", "ISH"}
	var req service.ScheduleRequest
	var owner string
	var want *service.ScheduleResponse
	for _, alg := range algs {
		r := service.ScheduleRequest{Algorithm: alg, Instance: inst}
		resp, hdr := postSchedule(t, urls[0], r)
		if o := hdr.Get("X-Shard-Owner"); o != urls[0] {
			req, owner, want = r, o, resp
			break
		}
	}
	if owner == "" {
		t.Fatalf("all %d probe algorithms hash to node 0; cannot exercise failover", len(algs))
	}

	// Kill the owner.
	for i, u := range urls {
		if u == owner {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := servers[i].Shutdown(ctx); err != nil {
				t.Fatalf("shutting down owner: %v", err)
			}
			cancel()
		}
	}

	// Entry node 0 holds a local copy from the warm-up round, so ask the
	// node that never saw the request AND does not own it.
	var probe string
	for _, u := range urls {
		if u != owner && u != urls[0] {
			probe = u
		}
	}
	resp, hdr := postSchedule(t, probe, req)
	if scheduleDigest(t, resp) != scheduleDigest(t, want) {
		t.Errorf("failover answer differs from pre-failure schedule")
	}
	if sb := hdr.Get("X-Served-By"); sb != probe {
		t.Errorf("served by %q, want local fallback %q after owner death", sb, probe)
	}
	snap, err := fetchMetrics(probe)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if n := computeCount(snap); n != 1 {
		t.Errorf("node %s computed %d runs, want 1 (the dead owner's key, locally)", probe, n)
	}
	if failed := snap.Shard.Probe.Errors + snap.Shard.Probe.Timeouts; failed < 1 {
		t.Errorf("shard.probe errors+timeouts = %d, want >= 1 (the probe of the dead owner)", failed)
	}

	// The multi-node client fails over too: owner-first, then survivors.
	mc := &service.Client{Peers: urls, Retry: &service.RetryPolicy{MaxAttempts: 1}}
	mresp, err := mc.Schedule(context.Background(), req)
	if err != nil {
		t.Fatalf("multi-node client with dead owner: %v", err)
	}
	if scheduleDigest(t, mresp) != scheduleDigest(t, want) {
		t.Errorf("multi-node client answer differs from pre-failure schedule")
	}
}

// ownerRecorder is an HTTP transport that records the X-Shard-Owner
// of every /v1/schedule response, in order.
type ownerRecorder struct {
	mu     sync.Mutex
	owners []string
}

func (o *ownerRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && r.URL.Path == "/v1/schedule" {
		o.mu.Lock()
		o.owners = append(o.owners, resp.Header.Get("X-Shard-Owner"))
		o.mu.Unlock()
	}
	return resp, err
}

// TestRingClientRoutesToOwner is the client/server key-agreement e2e: a
// ring-aware client places every request on the node that owns it, so
// across a mixed workload — indented instances, bare graphs, task names
// that need HTML escaping, analyze, faults, every comm model, and
// serving knobs that must not move a key — no node ever probes a peer
// (only a non-owner does), and each node computes exactly the keys it
// owns. A client that keys requests differently from the server lands
// some on non-owners, which probe and compute there.
func TestRingClientRoutesToOwner(t *testing.T) {
	_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32})
	inst := instanceJSON(t, testfix.Topcuoglu())
	graph := json.RawMessage(`{
  "tasks": [
    {"id": 0, "weight": 2, "name": "load<a&b>"},
    {"id": 1, "weight": 3, "name": "</script>"},
    {"id": 2, "weight": 1}
  ],
  "edges": [{"from": 0, "to": 1, "data": 1}, {"from": 0, "to": 2, "data": 4}]
}`)
	var reqs []service.ScheduleRequest
	for _, alg := range []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS", "MCP", "ISH"} {
		reqs = append(reqs,
			service.ScheduleRequest{Algorithm: alg, Instance: inst},
			service.ScheduleRequest{Algorithm: alg, Graph: graph, Processors: 3, Latency: 0.5},
			service.ScheduleRequest{Algorithm: alg, Instance: inst, Analyze: true, TimeoutMs: 5000, Priority: "low"},
		)
	}
	for _, kind := range []string{"contention-free", "one-port", "shared-link"} {
		reqs = append(reqs, service.ScheduleRequest{Algorithm: "HEFT", Instance: inst, CommModel: kind})
	}
	reqs = append(reqs, service.ScheduleRequest{Algorithm: "HEFT", Graph: graph,
		Faults: &service.FaultsRequest{Rate: 0.3, Samples: 4, Seed: 1}})

	// Every request is a distinct key (algorithm, payload form, analyze,
	// comm model or faults differ), so the first round computes each
	// exactly once, at its owner.
	rec := &ownerRecorder{}
	c := &service.Client{Peers: urls, HTTPClient: &http.Client{Transport: rec},
		Retry: &service.RetryPolicy{MaxAttempts: 1}}
	for round := 0; round < 2; round++ {
		for _, req := range reqs {
			if _, err := c.Schedule(context.Background(), req); err != nil {
				t.Fatalf("%s: %v", req.Algorithm, err)
			}
		}
	}
	if len(rec.owners) != 2*len(reqs) {
		t.Fatalf("recorded %d responses, want %d", len(rec.owners), 2*len(reqs))
	}
	owned := make(map[string]int, len(urls))
	for _, o := range rec.owners[:len(reqs)] {
		owned[o]++
	}
	var probes int64
	for _, base := range urls {
		snap, err := fetchMetrics(base)
		if err != nil {
			t.Fatalf("Metrics %s: %v", base, err)
		}
		p := snap.Shard.Probe
		probes += p.Hits + p.Misses + p.Timeouts + p.Errors
		if n := computeCount(snap); n != owned[base] {
			t.Errorf("node %s computed %d runs, want %d (the distinct keys it owns)", base, n, owned[base])
		}
	}
	if probes != 0 {
		t.Errorf("%d requests x 2 rounds: %d shard.probe attempts; a ring-aware client must land every request on its owner",
			len(reqs), probes)
	}
}
