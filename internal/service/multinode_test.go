package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
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

// TestMultiNodeForwarding runs a 3-node ring: every node must agree on
// each key's owner (X-Shard-Owner), route requests it does not own to
// that owner (X-Served-By), and produce byte-identical schedules to a
// standalone single-node server.
func TestMultiNodeForwarding(t *testing.T) {
	_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32})
	_, ref := startServer(t, service.Options{Workers: 2}) // single-node reference

	inst := instanceJSON(t, testfix.Topcuoglu())
	for _, alg := range []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS"} {
		req := service.ScheduleRequest{Algorithm: alg, Instance: inst}
		refResp, err := ref.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("reference %s: %v", alg, err)
		}
		want := scheduleDigest(t, refResp)

		var owner string
		for i, base := range urls {
			resp, hdr := postSchedule(t, base, req)
			if got := scheduleDigest(t, resp); got != want {
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
			// The serving node is the owner — either this node owns the
			// key, or it forwarded there. (A cached local copy can answer
			// later rounds, but each alg's first pass has a cold ring.)
			if sb := hdr.Get("X-Served-By"); sb != owner && i == 0 {
				// First request is computed at the owner via forwarding.
				t.Errorf("%s via node %d: served by %q, want owner %q", alg, i, sb, owner)
			}
		}
	}
}

// TestMultiNodePeerCacheHit pins the middle cache tier: a batch item
// whose key is owned by another node finds that node's cached result
// via the /v1/cache probe instead of recomputing. Replication is
// disabled: a pushed replica would turn the probe into a local hit,
// which is exactly what this test must not conflate (replica.go has
// its own tests).
func TestMultiNodePeerCacheHit(t *testing.T) {
	servers, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32, Replication: -1})
	inst := instanceJSON(t, testfix.Topcuoglu())
	req := service.ScheduleRequest{Algorithm: "HEFT", Instance: inst}

	// Compute once through node 0; forwarding caches the result at the
	// key's owner.
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

// TestMultiNodeFailover kills a key's owner: surviving nodes must keep
// answering that key by computing locally after the forward fails, and
// the failure must surface in their forward metrics. Replication is
// disabled so the forward genuinely fails instead of being served from
// a local replica (the replicated path is cluster_test.go's job).
func TestMultiNodeFailover(t *testing.T) {
	servers, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32, Replication: -1})
	inst := instanceJSON(t, testfix.Topcuoglu())

	// Find an algorithm whose key is NOT owned by node 0, so node 0
	// must forward — and survive the owner's death.
	algs := []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS", "MCP", "ISH"}
	var req service.ScheduleRequest
	var owner string
	for _, alg := range algs {
		r := service.ScheduleRequest{Algorithm: alg, Instance: inst}
		_, hdr := postSchedule(t, urls[0], r)
		if o := hdr.Get("X-Shard-Owner"); o != urls[0] {
			req, owner = r, o
			break
		}
	}
	if owner == "" {
		t.Fatalf("all %d probe algorithms hash to node 0; cannot exercise failover", len(algs))
	}
	want, _ := postSchedule(t, urls[0], req)

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

	// Entry node 0 holds a local copy from the warm-up round — a fresh
	// algorithm name under the same death is the honest test, so use a
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

	c := &service.Client{BaseURL: probe}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.Shard.ForwardFailures[owner] < 1 {
		t.Errorf("forward_failures[%s] = %d, want >= 1", owner, snap.Shard.ForwardFailures[owner])
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

// TestMultiNodeForwardMetrics asserts the per-peer forward counters
// appear and add up after forwarded traffic.
func TestMultiNodeForwardMetrics(t *testing.T) {
	_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32})
	inst := instanceJSON(t, testfix.Topcuoglu())
	for _, alg := range []string{"HEFT", "CPOP", "DLS", "MCP"} {
		for _, base := range urls {
			postSchedule(t, base, service.ScheduleRequest{Algorithm: alg, Instance: inst})
		}
	}
	var forwards int64
	for _, base := range urls {
		c := &service.Client{BaseURL: base}
		snap, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatalf("Metrics %s: %v", base, err)
		}
		if snap.Shard.Forwards == nil || snap.Shard.ForwardFailures == nil {
			t.Fatalf("node %s: forward maps missing from /metrics", base)
		}
		for peer, n := range snap.Shard.Forwards {
			if peer == base {
				t.Errorf("node %s recorded a forward to itself", base)
			}
			forwards += n
		}
	}
	if forwards == 0 {
		t.Errorf("no forwards recorded across the ring; 4 algorithms x 3 entry nodes must forward at least once")
	}
}

// TestRingClientRoutesToOwner is the client/server key-agreement e2e: a
// ring-aware client places every request on the node that owns it, so
// across a mixed workload — indented instances, bare graphs, task names
// that need HTML escaping, analyze, faults, every comm model, and
// serving knobs that must not move a key — no node ever forwards.
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

	c := &service.Client{Peers: urls, Retry: &service.RetryPolicy{MaxAttempts: 1}}
	for round := 0; round < 2; round++ {
		for _, req := range reqs {
			if _, err := c.Schedule(context.Background(), req); err != nil {
				t.Fatalf("%s: %v", req.Algorithm, err)
			}
		}
	}
	var forwards, failures int64
	for _, base := range urls {
		snap, err := (&service.Client{BaseURL: base}).Metrics(context.Background())
		if err != nil {
			t.Fatalf("Metrics %s: %v", base, err)
		}
		for _, n := range snap.Shard.Forwards {
			forwards += n
		}
		for _, n := range snap.Shard.ForwardFailures {
			failures += n
		}
	}
	if forwards != 0 || failures != 0 {
		t.Errorf("%d requests x 2 rounds: %d forwards, %d forward failures; a ring-aware client must land every request on its owner",
			len(reqs), forwards, failures)
	}
}

// TestNonOwnerRelaysOwnersVerdict pins the forward-before-build order:
// a non-owner relays a request with a malformed instance to the key's
// owner without building it, and the owner's 400 comes back unchanged.
func TestNonOwnerRelaysOwnersVerdict(t *testing.T) {
	_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32})
	body, err := json.Marshal(service.ScheduleRequest{Algorithm: "HEFT", Instance: json.RawMessage(`[1, 2, 3]`)})
	if err != nil {
		t.Fatal(err)
	}
	post := func(base string) (int, http.Header, string) {
		resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", base, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header, buf.String()
	}
	_, hdr, _ := post(urls[0])
	owner := hdr.Get("X-Shard-Owner")
	if owner == "" {
		t.Fatal("no X-Shard-Owner on a request that passed the envelope checks")
	}
	entry := urls[0]
	if owner == entry {
		entry = urls[1]
	}
	ownStatus, _, ownBody := post(owner)
	status, hdr, got := post(entry)
	if ownStatus != http.StatusBadRequest || status != http.StatusBadRequest {
		t.Fatalf("owner answered %d, non-owner %d; want 400 from both", ownStatus, status)
	}
	if sb := hdr.Get("X-Served-By"); sb != owner {
		t.Errorf("served by %q, want the owner %q (the non-owner must relay, not judge)", sb, owner)
	}
	if got != ownBody {
		t.Errorf("relayed body %q differs from the owner's %q", got, ownBody)
	}
}
