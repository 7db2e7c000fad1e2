package service

import "sync"

// flight is one in-progress computation of a cache key. The leader that
// registered it fills resp/err and closes done; every other request for
// the same key parks on done instead of queueing a duplicate job.
type flight struct {
	done chan struct{}
	resp *ScheduleResponse
	err  error
}

// flightGroup coalesces concurrent identical scheduling requests
// (same request key) into a single computation — the in-flight
// complement of the LRU result cache, which only helps once a run has
// finished. Without it, a burst of identical requests all miss the
// cache together and burn a worker each on the same answer.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join registers the caller on key's flight. The first caller becomes
// the leader (leader == true) and must call finish exactly once;
// followers receive the existing flight to wait on.
func (g *flightGroup) join(key string) (leader bool, f *flight) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return false, f
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return true, f
}

// finish publishes the leader's result and wakes the followers. The
// flight is removed before done closes, so a request arriving after
// finish starts a fresh computation (or hits the cache the leader just
// filled) rather than reading a stale flight.
func (g *flightGroup) finish(key string, f *flight, resp *ScheduleResponse, err error) {
	g.mu.Lock()
	if g.m[key] == f {
		delete(g.m, key)
	}
	g.mu.Unlock()
	f.resp, f.err = resp, err
	close(f.done)
}
