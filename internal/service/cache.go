package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
)

// requestKey is the one identity of a scheduling query. The client
// places a request on the ring by it; the server shards, caches,
// coalesces, probes and replicates by it. It is the SHA-256 hex of the
// request re-marshalled by encoding/json without its two serving knobs,
// TimeoutMs and Priority — they change how a query is served, not its
// answer. Marshalling compacts and HTML-escapes the raw instance and
// graph, and a second pass changes nothing, so the key a client
// computes before sending equals the key the server computes after
// decoding. Whitespace variants of a payload therefore share a key;
// key-order and number-format variants, a bare graph and its expanded
// instance, and commModel "" versus "contention-free" do not.
//
// No decoded request fails to re-marshal (every field came from JSON),
// and the client marshals the request before keying it, so the error
// branch is unreachable in practice; it yields "", which validCacheKey
// rejects.
func requestKey(req *ScheduleRequest) string {
	k := *req
	k.TimeoutMs, k.Priority = 0, ""
	b, err := json.Marshal(&k)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// lruCache is a mutex-guarded LRU of schedule responses with hit/miss
// accounting. Stored responses are treated as immutable: Get returns a
// shallow copy with Cached set, never the stored value itself.
type lruCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List               // front = most recent
	byKey  map[string]*list.Element // value: *cacheEntry
	hits   int64
	misses int64
}

type cacheEntry struct {
	key  string
	resp *ScheduleResponse
	// replica marks an entry that arrived via a peer's replication
	// push or cache probe rather than local computation — so a hit on
	// it is attributable to replication in the tier metrics.
	replica bool
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns a copy of the cached response marked Cached (or nil),
// plus whether the entry was a replication-delivered copy.
func (c *lruCache) Get(key string) (*ScheduleResponse, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	cp := *e.resp
	cp.Cached = true
	return &cp, e.replica
}

// Put stores a locally computed response, evicting the least recently
// used entry when full. The caller must not mutate resp afterwards.
func (c *lruCache) Put(key string, resp *ScheduleResponse) {
	c.put(key, resp, false)
}

// PutReplica stores a replication-delivered copy. An entry this node
// already computed itself is left alone — local computation is
// authoritative and its tier attribution must not be downgraded.
func (c *lruCache) PutReplica(key string, resp *ScheduleResponse) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	el, ok := c.byKey[key]
	if ok && !el.Value.(*cacheEntry).replica {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.put(key, resp, true)
}

func (c *lruCache) put(key string, resp *ScheduleResponse, replica bool) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.resp, e.replica = resp, replica
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, resp: resp, replica: replica})
	c.byKey[key] = el
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

// cacheSnap is one entry of a cache snapshot.
type cacheSnap struct {
	key  string
	resp *ScheduleResponse
}

// Snapshot returns up to max entries, most recently used first — the
// order an anti-entropy sweep wants, since the hottest entries are the
// ones worth re-delivering under a bound.
func (c *lruCache) Snapshot(max int) []cacheSnap {
	if c.cap <= 0 || max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheSnap, 0, min(max, c.ll.Len()))
	for el := c.ll.Front(); el != nil && len(out) < max; el = el.Next() {
		e := el.Value.(*cacheEntry)
		out = append(out, cacheSnap{key: e.key, resp: e.resp})
	}
	return out
}

// Stats returns hits, misses and current size.
func (c *lruCache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
