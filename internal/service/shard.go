package service

import (
	"bytes"
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
// that actually served it (X-Served-By). A node forwards a request it
// does not own to the owner exactly once, marking the hop with
// X-Schedd-Forwarded; a request already carrying that header is never
// forwarded again, so inconsistent ring configurations degrade to
// local computation instead of forwarding loops.
const (
	hdrShardOwner = "X-Shard-Owner"
	hdrServedBy   = "X-Served-By"
	hdrForwarded  = "X-Schedd-Forwarded"
)

// Forwarding circuit parameters: a peer that fails this many
// consecutive forwards/probes is skipped for the cooldown, so a dead
// node costs one connection timeout per cooldown instead of per
// request.
const (
	forwardBreakerThreshold = 3
	forwardBreakerCooldown  = 3 * time.Second
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

// tryForward relays a /v1/schedule request body to the owning peer and
// streams its response back. Returns false — telling the caller to
// compute locally — when the peer's circuit is open, the transport
// fails, or the owner is itself overloaded (503): a sharded ring
// prefers answering from the wrong node over failing from the right
// one. Any other owner response (including 4xx/5xx verdicts about the
// request itself) is authoritative and relayed as-is.
func (s *Server) tryForward(ctx context.Context, w http.ResponseWriter, sh *shardState, owner string, body []byte) bool {
	if _, open := s.peerBrk.allow(owner, forwardBreakerThreshold); open {
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hdrForwarded, sh.self)
	resp, err := s.peerClient.Do(req)
	if err != nil {
		s.peerBrk.observe(owner, forwardBreakerThreshold, forwardBreakerCooldown, err)
		s.met.ObserveForward(owner, false)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, resp.Body)
		s.peerBrk.observe(owner, forwardBreakerThreshold, forwardBreakerCooldown,
			&StatusError{Method: http.MethodPost, Path: "/v1/schedule", Status: resp.StatusCode})
		s.met.ObserveForward(owner, false)
		return false
	}
	s.peerBrk.observe(owner, forwardBreakerThreshold, forwardBreakerCooldown, nil)
	s.met.ObserveForward(owner, true)
	w.Header().Del(hdrServedBy) // the owner names who served, if anyone
	if v := resp.Header.Get(hdrServedBy); v != "" {
		w.Header().Set(hdrServedBy, v)
	}
	if v := resp.Header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// probePeerCache asks one peer whether it already has key's result — a
// cheap GET against its cache, never a computation. Any failure
// (circuit open, timeout, malformed body) degrades to a miss; timeouts
// are counted separately from true misses, since a fleet whose probes
// time out needs a bigger -probe-timeout, not a warmer cache.
func (s *Server) probePeerCache(ctx context.Context, owner, key string) *ScheduleResponse {
	if _, open := s.peerBrk.allow(owner, forwardBreakerThreshold); open {
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
		s.peerBrk.observe(owner, forwardBreakerThreshold, forwardBreakerCooldown, err)
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
		s.peerBrk.observe(owner, forwardBreakerThreshold, forwardBreakerCooldown, obs)
		return nil
	}
	s.peerBrk.observe(owner, forwardBreakerThreshold, forwardBreakerCooldown, nil)
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
// is exactly the PR 8 lookup; with it, a dead owner's keyspace is
// still one probe away at its successors. skip names a peer to leave
// out (e.g. an owner a forward just failed against).
func (s *Server) probeReplicas(ctx context.Context, sh *shardState, key, skip string) *ScheduleResponse {
	for _, peer := range replicaHolders(sh, key, s.opts.Replication) {
		if peer == sh.self || peer == skip {
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
//	PUT /v1/cache/{hash} — a replication push or handoff: the body (a
//	ScheduleResponse) is stored as a replica copy.
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
