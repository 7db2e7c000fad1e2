package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
)

// Cache replication. Sharding gives every cache key one owner; this
// layer gives it R successor replicas so an owner's death does not
// cold-start its keyspace. Two mechanisms, both asynchronous and both
// best-effort (the cache is a cache — losing a replica costs a
// recompute, never correctness):
//
//   - push on compute: after a node computes and caches a result, it
//     PUTs the entry to the other holders of the key (the first R+1
//     nodes of the key's ring successor list). Whoever computed — the
//     owner, or a non-owner a plain client reached — the copies land at
//     the nodes lookups will consult. A failed push is counted and
//     dropped.
//   - anti-entropy sweep: when a peer joins or rises from the dead,
//     every node walks its own cache (bounded by sweepMaxEntries,
//     hottest first) and pushes the entries the peer should hold — so a
//     rejoined node's keyspace is warm again within one sweep instead
//     of one cache miss at a time. It is the one re-warm path.

// sweepMaxEntries bounds one anti-entropy sweep, hottest entries first
// (LRU order), so a giant cache cannot stall the ring.
const sweepMaxEntries = 256

// replicaHolders lists the nodes that should hold key under sh's ring:
// the owner plus the next r distinct successors. With replication off
// (r == 0) that is just the owner.
func replicaHolders(sh *shardState, key string, r int) []string {
	succ := sh.ring.successors(key)
	if len(succ) > r+1 {
		succ = succ[:r+1]
	}
	return succ
}

// replicate pushes a freshly computed entry to the other holders of
// its key. Fire-and-forget: the computing request never waits on
// replication. A peer with an open circuit is not dialed; the push
// counts as failed.
func (s *Server) replicate(key string, resp *ScheduleResponse) {
	sh := s.shard.Load()
	if sh == nil {
		return
	}
	for _, peer := range replicaHolders(sh, key, s.opts.Replication) {
		if peer == sh.self {
			continue
		}
		go func(peer string) {
			if _, open := s.peerBrk.allow(peer, peerBreakerThreshold); open {
				s.met.ObserveReplicaPush(false)
				return
			}
			s.push(peer, key, resp)
		}(peer)
	}
}

// sweepFor reconciles a joined or rejoined peer on its own goroutine:
// walk this node's cache (hottest first, bounded) and push every entry
// the peer should hold under the current ring. The peer just answered,
// so its circuit is not consulted. The sweep stops at the first failed
// push (the peer is gone again; its next rejoin sweeps afresh) and on
// Shutdown.
func (s *Server) sweepFor(peer string) {
	sh := s.shard.Load()
	if sh == nil || peer == sh.self {
		return
	}
	go func() {
		pushed := 0
		defer func() { s.met.ObserveSweep(pushed) }()
		for _, e := range s.cache.Snapshot(sweepMaxEntries) {
			select {
			case <-s.quit:
				return
			default:
			}
			for _, holder := range replicaHolders(sh, e.key, s.opts.Replication) {
				if holder != peer {
					continue
				}
				if s.push(peer, e.key, e.resp) != nil {
					return
				}
				pushed++
				break
			}
		}
	}()
}

// push PUTs one entry to one peer bounded by the probe timeout, feeding
// the peer's circuit and the push counters.
func (s *Server) push(peer, key string, resp *ScheduleResponse) (err error) {
	defer func() {
		s.peerBrk.observe(peer, peerBreakerThreshold, peerBreakerCooldown, err)
		s.met.ObserveReplicaPush(err == nil)
	}()
	body, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+"/v1/cache/"+key, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := s.peerClient.Do(req)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	_, _ = io.Copy(io.Discard, hr.Body)
	if hr.StatusCode != http.StatusOK && hr.StatusCode != http.StatusNoContent {
		return &StatusError{Method: http.MethodPut, Path: "/v1/cache/", Status: hr.StatusCode}
	}
	return nil
}
