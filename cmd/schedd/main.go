// Command schedd serves task-graph scheduling over HTTP: POST a problem
// instance (or a bare graph) plus an algorithm name to /v1/schedule and
// get the schedule, its measures and an optional analysis back. See
// docs/SERVICE.md for the API.
//
// Usage:
//
//	schedd                                  # serve on 127.0.0.1:8080
//	schedd -addr :9000 -workers 4           # custom bind and pool size
//	schedd -timeout 10s -max-timeout 1m     # tighter deadlines
//	schedd -cache 0                         # disable the result cache
//
// A cluster shards its cache over a consistent-hash ring: start every
// node with the same -peers list and its own -self URL, e.g.
//
//	schedd -addr :8080 -self http://10.0.0.1:8080 \
//	    -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
// Membership is dynamic after that: nodes heartbeat each other, mark
// silent peers suspect then dead (resharding around them), and a new
// or restarted node joins a running ring through any live member:
//
//	schedd -addr :8084 -self http://10.0.0.4:8084 -join http://10.0.0.1:8080
//
// Cached results are replicated to -replication ring successors, so a
// node's death does not cold-start its keyspace.
//
// SIGINT/SIGTERM shut the server down gracefully: the node announces
// its leave to the ring (its successors already hold replicas of its
// keys), then drains in-flight requests for up to -drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dagsched"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent scheduling runs (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "request queue depth; a full queue answers 503")
		cache      = flag.Int("cache", 256, "LRU result-cache entries (negative disables)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request scheduling deadline")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "upper bound on client-requested deadlines")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		batchMax   = flag.Int("batch-max", 0, "max items per batch request (0 = default 256)")
		self       = flag.String("self", "", "this node's base URL on the ring (required with -peers or -join)")
		peersCSV   = flag.String("peers", "", "comma-separated base URLs of all ring members, self included")
		join       = flag.String("join", "", "base URL of a live ring member to join (alternative to -peers)")
		replicas   = flag.Int("replication", 2, "ring successors that hold a copy of each cached result beyond its owner (0 = owner copy only)")
		heartbeat  = flag.Duration("heartbeat", 500*time.Millisecond, "membership heartbeat interval")
		suspect    = flag.Duration("suspect-after", 2*time.Second, "silence before a peer is suspected (dead at twice this)")
		probeTO    = flag.Duration("probe-timeout", 0, "peer cache-probe and replica-push timeout (0 = default 500ms)")
	)
	flag.Parse()

	var peers []string
	for _, p := range strings.Split(*peersCSV, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}

	opts := dagsched.ServiceOptions{
		Addr:              *addr,
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheSize:         *cache,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxBatchItems:     *batchMax,
		SelfURL:           strings.TrimRight(*self, "/"),
		Peers:             peers,
		JoinURL:           strings.TrimRight(*join, "/"),
		Replication:       *replicas,
		HeartbeatInterval: *heartbeat,
		SuspectAfter:      *suspect,
		ProbeTimeout:      *probeTO,
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = -1 // flag 0 means off; Options treats 0 as default
	}
	if opts.Replication == 0 {
		opts.Replication = -1 // flag 0 means off; Options treats 0 as default
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "schedd: serving on %s (workers=%d queue=%d cache=%d)\n",
		*addr, *workers, *queue, *cache)
	if len(peers) > 1 {
		fmt.Fprintf(os.Stderr, "schedd: sharding as %s across %d peers (replication=%d)\n",
			opts.SelfURL, len(peers), *replicas)
	}
	if opts.JoinURL != "" {
		fmt.Fprintf(os.Stderr, "schedd: joining ring as %s via %s\n", opts.SelfURL, opts.JoinURL)
	}
	if err := dagsched.Serve(ctx, opts, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "schedd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "schedd: drained, bye")
}
