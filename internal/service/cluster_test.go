package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dagsched/internal/service"
	"dagsched/internal/testfix"
)

// clusterOpts are the tight failure-detector timings the cluster tests
// run under: suspicion within 150ms of silence, death within 300ms.
func clusterOpts() service.Options {
	return service.Options{
		Workers:           2,
		QueueDepth:        64,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      150 * time.Millisecond,
	}
}

// fetchMetrics GETs one node's /metrics directly (no client retry —
// polling loops want the raw error).
func fetchMetrics(base string) (*service.MetricsSnapshot, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	var snap service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// fetchRingView GETs one node's /v1/ring view.
func fetchRingView(base string) (*service.RingView, error) {
	resp, err := http.Get(base + "/v1/ring")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/ring: HTTP %d", resp.StatusCode)
	}
	var view service.RingView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, err
	}
	return &view, nil
}

// waitFor polls cond until it returns nil or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	var err error
	for time.Now().Before(deadline) {
		if err = cond(); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s: %v", what, err)
}

// computeCount sums every algorithm's uncached-run count on one node —
// the "did anything recompute" meter.
func computeCount(snap *service.MetricsSnapshot) int {
	n := 0
	for _, st := range snap.Algorithms {
		n += st.Count
	}
	return n
}

// ringCompute sums computeCount over every node of a ring.
func ringCompute(t *testing.T, urls []string) int {
	t.Helper()
	n := 0
	for _, u := range urls {
		snap, err := fetchMetrics(u)
		if err != nil {
			t.Fatalf("metrics %s: %v", u, err)
		}
		n += computeCount(snap)
	}
	return n
}

// TestClusterKillRestartRejoin is the self-healing end-to-end: a 3-node
// ring with replication is warmed, one node is killed without warning,
// and the cluster must (a) detect the death and reshard, (b) keep
// serving every request — including the dead node's keyspace, from
// replicas, with zero client-visible failures and zero recomputation —
// and (c) readopt the node when it restarts and joins through a
// survivor, re-warming its cache, with no process restarted anywhere
// else and the client following along via RefreshRing.
func TestClusterKillRestartRejoin(t *testing.T) {
	servers, urls := startCluster(t, 3, clusterOpts())
	inst := instanceJSON(t, testfix.Topcuoglu())
	algs := []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS", "MCP", "ISH"}

	// Warm every key through node 0, which computes each one;
	// replication (R=2 on 3 nodes) copies it everywhere.
	want := make(map[string]string, len(algs))
	for _, alg := range algs {
		resp, _ := postSchedule(t, urls[0], service.ScheduleRequest{Algorithm: alg, Instance: inst})
		want[alg] = scheduleDigest(t, resp)
	}
	waitFor(t, 10*time.Second, "replicas on every node", func() error {
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

	// Kill node 2 — Shutdown without Leave is a crash as far as the
	// ring is concerned — while clients keep hammering the cluster.
	victim := urls[2]
	survivors := []string{urls[0], urls[1]}
	before := 0
	for _, u := range survivors {
		snap, err := fetchMetrics(u)
		if err != nil {
			t.Fatalf("metrics %s: %v", u, err)
		}
		before += computeCount(snap)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &service.Client{Peers: urls}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				alg := algs[(g+i)%len(algs)]
				resp, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: alg, Instance: inst})
				if err != nil {
					errs <- fmt.Errorf("client %d: %s: %v", g, alg, err)
					return
				}
				if d := scheduleDigest(t, resp); d != want[alg] {
					errs <- fmt.Errorf("client %d: %s digest changed during failover", g, alg)
					return
				}
			}
		}(g)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := servers[2].Shutdown(ctx); err != nil {
		t.Fatalf("killing node 2: %v", err)
	}
	cancel()

	// Survivors must detect the death and swap to a 2-node ring.
	waitFor(t, 10*time.Second, "death detection on both survivors", func() error {
		for _, u := range survivors {
			snap, err := fetchMetrics(u)
			if err != nil {
				return err
			}
			if snap.Cluster.Dead < 1 {
				return fmt.Errorf("%s: dead = %d", u, snap.Cluster.Dead)
			}
			if !snap.Cluster.Enabled {
				return fmt.Errorf("%s: sharding off after death", u)
			}
		}
		return nil
	})

	// Let traffic run a little past detection, then stop and demand a
	// clean record: zero failed requests across the kill window.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request failed during node death: %v", err)
	}

	// The dead node's keyspace must have been served from cache copies,
	// not recomputed: compute counts across survivors are unchanged and
	// replica-tier hits appeared.
	afterCompute, replicaHits := 0, int64(0)
	for _, u := range survivors {
		snap, err := fetchMetrics(u)
		if err != nil {
			t.Fatalf("metrics %s: %v", u, err)
		}
		afterCompute += computeCount(snap)
		replicaHits += snap.Cache.Tier.Replica + snap.Cache.Tier.Peer
	}
	if afterCompute != before {
		t.Errorf("survivors recomputed: %d runs before kill, %d after", before, afterCompute)
	}
	if replicaHits < 1 {
		t.Errorf("no replica or peer cache hits recorded while serving the dead node's keyspace")
	}

	// Restart the victim on its old address and join through a survivor
	// — no operator-provided peer list, no restart anywhere else.
	o := clusterOpts()
	o.Addr = strings.TrimPrefix(victim, "http://")
	o.SelfURL = victim
	o.JoinURL = survivors[0]
	reborn := service.New(o)
	if _, err := reborn.Start(); err != nil {
		t.Fatalf("restarting victim: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = reborn.Shutdown(ctx)
		cancel()
	})

	// Every node — rejoined one included — must converge back to a
	// 3-member all-alive view.
	waitFor(t, 10*time.Second, "3-node ring view on every node", func() error {
		for _, u := range urls {
			view, err := fetchRingView(u)
			if err != nil {
				return err
			}
			alive := 0
			for _, m := range view.Members {
				if m.Status == "alive" {
					alive++
				}
			}
			if alive != 3 {
				return fmt.Errorf("%s sees %d alive members of %v", u, alive, view.Members)
			}
		}
		return nil
	})

	// Anti-entropy must re-warm the rejoined node with every warmed key
	// (R=2 on 3 nodes makes it a holder of all of them). These are the
	// only keys the cluster ever saw, so a full cache holds them all,
	// and asking the rejoined node for each computes nothing.
	waitFor(t, 10*time.Second, "anti-entropy sweep to the rejoined node", func() error {
		snap, err := fetchMetrics(victim)
		if err != nil {
			return err
		}
		if snap.Cache.Size < len(algs) {
			return fmt.Errorf("rejoined cache holds %d of %d warmed keys", snap.Cache.Size, len(algs))
		}
		return nil
	})
	for _, alg := range algs {
		resp, _ := postSchedule(t, victim, service.ScheduleRequest{Algorithm: alg, Instance: inst})
		if d := scheduleDigest(t, resp); d != want[alg] {
			t.Errorf("rejoined node's %s differs from the pre-kill result", alg)
		}
	}
	if snap, err := fetchMetrics(victim); err != nil {
		t.Fatalf("metrics %s: %v", victim, err)
	} else if n := computeCount(snap); n != 0 {
		t.Errorf("rejoined node recomputed %d warmed keys; the sweep must have delivered all %d", n, len(algs))
	}

	// A long-lived client refreshes its ring view from the cluster.
	c := &service.Client{Peers: survivors}
	if err := c.RefreshRing(context.Background()); err != nil {
		t.Fatalf("RefreshRing: %v", err)
	}
	if peers := c.RingPeers(); len(peers) != 3 {
		t.Fatalf("client ring = %v, want all 3 members after refresh", peers)
	}
	resp, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: algs[0], Instance: inst})
	if err != nil {
		t.Fatalf("post-rejoin schedule: %v", err)
	}
	if d := scheduleDigest(t, resp); d != want[algs[0]] {
		t.Error("post-rejoin schedule differs from the pre-kill result")
	}
}

// TestClusterGracefulLeave pins what replaces a leave-time handoff: at
// R=1 every key already has a copy at its first ring successor, which
// is exactly the node that inherits the key when its owner leaves. So
// after one node leaves gracefully (Leave, then Shutdown, as Serve
// does), a ring-aware client that refreshed its view finds every
// warmed key cached at its new owner, and no survivor recomputes.
func TestClusterGracefulLeave(t *testing.T) {
	o := clusterOpts()
	o.Replication = 1
	servers, urls := startCluster(t, 3, o)
	inst := instanceJSON(t, testfix.Topcuoglu())
	algs := []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS", "MCP", "ISH"}

	c := &service.Client{Peers: urls, Retry: &service.RetryPolicy{MaxAttempts: 1}}
	want := make(map[string]string, len(algs))
	for _, alg := range algs {
		resp, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: alg, Instance: inst})
		if err != nil {
			t.Fatalf("warming %s: %v", alg, err)
		}
		want[alg] = scheduleDigest(t, resp)
	}
	// Each key was computed once, at its owner, and pushed to its one
	// successor.
	waitFor(t, 10*time.Second, "one replica of every key", func() error {
		var stores int64
		for _, u := range urls {
			snap, err := fetchMetrics(u)
			if err != nil {
				return err
			}
			stores += snap.Cluster.Replica.Stores
		}
		if stores < int64(len(algs)) {
			return fmt.Errorf("%d of %d replicas stored", stores, len(algs))
		}
		return nil
	})
	if warm := ringCompute(t, urls); warm != len(algs) {
		t.Fatalf("warm-up computed %d runs, want %d (one per key, at its owner)", warm, len(algs))
	}

	leaver, survivors := urls[2], urls[:2]
	before := ringCompute(t, survivors)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	servers[2].Leave(ctx)
	if err := servers[2].Shutdown(ctx); err != nil {
		t.Fatalf("shutting down the leaver: %v", err)
	}
	cancel()
	// A survivor can briefly re-learn the leaver from the other's stale
	// heartbeat view; the detector then drops it.
	waitFor(t, 10*time.Second, "a 2-node ring on both survivors", func() error {
		for _, u := range survivors {
			snap, err := fetchMetrics(u)
			if err != nil {
				return err
			}
			if !snap.Cluster.Enabled || len(snap.Shard.Peers) != len(survivors) {
				return fmt.Errorf("%s ring = %v", u, snap.Shard.Peers)
			}
		}
		return nil
	})
	if err := c.RefreshRing(context.Background()); err != nil {
		t.Fatalf("RefreshRing: %v", err)
	}
	for _, p := range c.RingPeers() {
		if p == leaver {
			t.Fatalf("client ring %v still names the leaver %s", c.RingPeers(), leaver)
		}
	}
	for _, alg := range algs {
		resp, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: alg, Instance: inst})
		if err != nil {
			t.Fatalf("%s after leave: %v", alg, err)
		}
		if d := scheduleDigest(t, resp); d != want[alg] {
			t.Errorf("%s after leave differs from the pre-leave result", alg)
		}
	}
	if after := ringCompute(t, survivors); after != before {
		t.Errorf("survivors recomputed after a graceful leave: %d runs before, %d after", before, after)
	}
}

// TestChurnDuringBatchProperty is the consistency property of dynamic
// membership: a join and a graceful leave racing an in-flight batch
// may change who computes or where cache copies live, but never the
// answer. Every batch item is checked digest-for-digest against a
// standalone single-node reference while a fourth node joins the ring
// and leaves again mid-traffic.
func TestChurnDuringBatchProperty(t *testing.T) {
	_, urls := startCluster(t, 3, clusterOpts())
	_, ref := startServer(t, service.Options{Workers: 2})
	inst := instanceJSON(t, testfix.Topcuoglu())
	algs := []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS", "MCP", "ISH"}

	items := make([]service.ScheduleRequest, len(algs))
	want := make([]string, len(algs))
	for i, alg := range algs {
		items[i] = service.ScheduleRequest{Algorithm: alg, Instance: inst}
		resp, err := ref.Schedule(context.Background(), items[i])
		if err != nil {
			t.Fatalf("reference %s: %v", alg, err)
		}
		want[i] = scheduleDigest(t, resp)
	}

	churned := make(chan error, 1)
	go func() {
		o := clusterOpts()
		o.Addr = "127.0.0.1:0"
		extra := service.New(o)
		addr, err := extra.Start()
		if err != nil {
			churned <- fmt.Errorf("starting 4th node: %v", err)
			return
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = extra.Shutdown(ctx)
			cancel()
		}()
		if err := extra.ConfigureJoin("http://"+addr, urls[0]); err != nil {
			churned <- fmt.Errorf("joining 4th node: %v", err)
			return
		}
		// Give the join time to spread and route live traffic through
		// the 4-node ring, then depart gracefully mid-traffic.
		time.Sleep(250 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		extra.Leave(ctx)
		cancel()
		churned <- nil
	}()

	c := &service.Client{Peers: urls}
	done := false
	for round := 0; !done; round++ {
		select {
		case err := <-churned:
			if err != nil {
				t.Fatal(err)
			}
			done = true // one final batch below runs post-churn
		default:
		}
		bresp, err := c.ScheduleBatch(context.Background(), service.BatchRequest{Items: items})
		if err != nil {
			t.Fatalf("batch round %d: %v", round, err)
		}
		if bresp.Failed != 0 {
			t.Fatalf("batch round %d: %d items failed: %+v", round, bresp.Failed, bresp.Items)
		}
		for i, item := range bresp.Items {
			if d := scheduleDigest(t, item.Response); d != want[i] {
				t.Fatalf("batch round %d item %s: digest differs from single-node reference (join/leave changed an answer)",
					round, algs[i])
			}
		}
	}
}
