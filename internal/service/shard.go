package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Sharding headers. Every /v1/schedule response from a ring member
// carries the owner of the request's key (X-Shard-Owner) and the node
// that served it (X-Served-By). A plain client's request is served
// where it lands; a ring-aware client sends it to the owner, so the
// two agree.
const (
	hdrShardOwner = "X-Shard-Owner"
	hdrServedBy   = "X-Served-By"
)

// Peer circuit parameters: a peer that fails this many consecutive
// probes or replica pushes is skipped for the cooldown, so a dead node
// costs one connection timeout per cooldown instead of per request.
const (
	peerBreakerThreshold = 3
	peerBreakerCooldown  = 3 * time.Second
)

// shardState is the immutable ring view of one configuration epoch;
// Server.shard swaps it atomically so request paths read a consistent
// (self, ring) pair without locking. What outlives an epoch — the peer
// breakers, the peer HTTP client, the probe timeout — stays on Server.
type shardState struct {
	self string
	ring *hashRing
}

// shardPtr wraps the atomic pointer so a nil load means "sharding off".
type shardPtr = atomic.Pointer[shardState]

// ConfigurePeers places this node on a consistent-hash ring with
// peers (base URLs, self included). Fewer than two distinct peers
// leaves the node standalone. Safe to call while serving: in-flight
// requests finish under the configuration they started with. The
// static list is only the starting membership — once configured, the
// heartbeat loop and the /v1/ring surface let nodes join, leave, die
// and rejoin without reconfiguring anything (see member.go).
func (s *Server) ConfigurePeers(self string, peers []string) error {
	return s.member.configureStatic(self, peers)
}

// ConfigureJoin points this node at a running ring member instead of a
// static peer list: the membership loop announces the join to seed
// (retrying until it answers) and adopts the cluster view it returns.
func (s *Server) ConfigureJoin(self, seed string) error {
	return s.member.configureJoin(self, seed)
}

// probePeerCache asks one peer whether it already has key's result — a
// cheap GET against its cache, never a computation. Any failure
// (circuit open, timeout, malformed body) degrades to a miss; timeouts
// are counted separately from true misses, since a fleet whose probes
// time out needs a bigger -probe-timeout, not a warmer cache.
func (s *Server) probePeerCache(ctx context.Context, owner, key string) *ScheduleResponse {
	if _, open := s.peerBrk.allow(owner, peerBreakerThreshold); open {
		return nil
	}
	pctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, owner+"/v1/cache/"+key, nil)
	if err != nil {
		return nil
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		if pctx.Err() != nil && ctx.Err() == nil {
			s.met.ObserveProbe(probeTimeout)
		} else {
			s.met.ObserveProbe(probeError)
		}
		s.peerBrk.observe(owner, peerBreakerThreshold, peerBreakerCooldown, err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		var obs error // a 404 means healthy-but-cold, not broken
		if resp.StatusCode != http.StatusNotFound {
			obs = &StatusError{Method: http.MethodGet, Path: "/v1/cache/", Status: resp.StatusCode}
			s.met.ObserveProbe(probeError)
		} else {
			s.met.ObserveProbe(probeMiss)
		}
		s.peerBrk.observe(owner, peerBreakerThreshold, peerBreakerCooldown, obs)
		return nil
	}
	s.peerBrk.observe(owner, peerBreakerThreshold, peerBreakerCooldown, nil)
	var out ScheduleResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, s.opts.MaxBodyBytes)).Decode(&out); err != nil {
		s.met.ObserveProbe(probeError)
		return nil
	}
	s.met.ObserveProbe(probeHit)
	return &out
}

// probeReplicas walks key's holder set — owner first, then its
// replication successors — probing each peer's cache until one
// answers. With replication disabled the set is just the owner, which
// is a single probe; with it, a dead owner's keyspace is still one
// probe away at its successors.
func (s *Server) probeReplicas(ctx context.Context, sh *shardState, key string) *ScheduleResponse {
	for _, peer := range replicaHolders(sh, key, s.opts.Replication) {
		if peer == sh.self {
			continue
		}
		if resp := s.probePeerCache(ctx, peer, key); resp != nil {
			return resp
		}
		if ctx.Err() != nil {
			return nil
		}
	}
	return nil
}

// handleCache serves the peer-cache surface:
//
//	GET /v1/cache/{hash} — the probe. Only ever reads this node's LRU;
//	a probe can never trigger a computation, which is what keeps the
//	tiered lookup cheap.
//	PUT /v1/cache/{hash} — a replica push or an anti-entropy sweep: the
//	body (a ScheduleResponse) is stored as a replica copy.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, "malformed cache key")
		return
	}
	switch r.Method {
	case http.MethodGet:
		if resp, _ := s.cache.Get(key); resp != nil {
			writeJSON(w, http.StatusOK, resp)
			return
		}
		writeError(w, http.StatusNotFound, "not cached")
	case http.MethodPut:
		var resp ScheduleResponse
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(&resp); err != nil {
			writeError(w, http.StatusBadRequest, "decoding replica entry: %v", err)
			return
		}
		if resp.Algorithm == "" {
			writeError(w, http.StatusBadRequest, "replica entry missing algorithm")
			return
		}
		resp.Cached, resp.Coalesced = false, false
		s.cache.PutReplica(key, &resp)
		s.met.ObserveReplicaStore()
		writeJSON(w, http.StatusOK, map[string]string{"status": "stored"})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or PUT only")
	}
}

// validCacheKey recognises the sha256-hex form requestKey produces.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
