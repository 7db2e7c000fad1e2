package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrCircuitOpen is returned (wrapped) by Client.Schedule when the
// relevant circuit breaker is open: recent requests for that algorithm
// (single-node mode) or that peer (multi-node mode) kept failing, so
// the client fails fast instead of hammering a struggling server.
// errors.Is recognises it.
var ErrCircuitOpen = errors.New("service: circuit open")

// RetryPolicy configures the client's transient-failure handling. The
// zero value of each field selects its default.
type RetryPolicy struct {
	// MaxAttempts bounds tries per call, first attempt included
	// (default 3). 1 disables retrying. In multi-node mode it bounds
	// attempts per peer; ring failover across peers is separate.
	MaxAttempts int
	// BaseBackoff is the first retry delay; each further retry doubles
	// it up to MaxBackoff, and every delay is drawn uniformly from
	// (0, nominal] — "full jitter", which decorrelates retry storms far
	// better than the old [50%,100%] band: after a mass failure the
	// retries of N clients spread over the whole window instead of
	// bunching in its upper half (defaults 50ms / 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed fixes the jitter RNG for reproducible backoff sequences in
	// tests; 0 (the default) seeds from the clock.
	Seed int64
	// BreakerThreshold opens a circuit after that many consecutive
	// server-side failures (default 5); BreakerCooldown is how long it
	// stays open before one trial request may probe again (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 5 * time.Second
	}
	return p
}

// StatusError is a non-2xx response. It formats exactly as the error
// string older client versions produced, so callers matching on the
// text keep working while new callers can switch on Status.
type StatusError struct {
	Method  string
	Path    string
	Status  int
	Message string // server-provided error body, may be empty
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("service: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// Client is a schedd API client with jittered-backoff retries on
// transient failures (503, transport errors) and circuit breakers.
//
// With only BaseURL set it talks to one server, with a per-algorithm
// breaker (one misbehaving algorithm cannot starve the others). With
// Peers set it becomes a load-balancing multi-node client over a schedd
// ring: Schedule places the request on the same consistent-hash circle
// the servers use, by the same key (requestKey), and dispatches to the
// owning peer first — so a request lands where its result is cached —
// failing over along the ring when a peer is down, with a per-peer
// circuit breaker keeping dead peers out of the path. A server never
// forwards: a request sent to a non-owner (by a plain BaseURL client)
// is served there, from the key's holders' caches or by computing it. ScheduleBatch round-robins whole batches across healthy
// peers.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". Used
	// when Peers is empty.
	BaseURL string
	// Peers lists the base URLs of every node of a schedd ring. When
	// set (two or more), requests are ring-dispatched with failover and
	// BaseURL is ignored.
	Peers []string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry tunes retries and the circuit breakers; nil uses defaults.
	Retry *RetryPolicy

	mu       sync.Mutex
	rng      *rand.Rand
	ring     *hashRing // built lazily from Peers
	algBr    breakerSet
	peerBr   breakerSet
	batchSeq uint64 // round-robin cursor for ScheduleBatch
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) policy() RetryPolicy {
	if c.Retry != nil {
		return c.Retry.withDefaults()
	}
	return RetryPolicy{}.withDefaults()
}

// peerRing lazily builds the client-side ring over Peers. Callers must
// not mutate Peers after the first Schedule/ScheduleBatch call; the
// client itself swaps the set via RefreshRing, under the lock.
func (c *Client) peerRing() *hashRing {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil {
		c.ring = newRing(c.Peers)
	}
	return c.ring
}

// numPeers reads the current peer count under the lock (RefreshRing
// may be swapping the set concurrently).
func (c *Client) numPeers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring != nil {
		return len(c.ring.peers)
	}
	return len(c.Peers)
}

// jitter maps a nominal backoff to a full-jitter draw: uniform in
// (0, d]. The nominal value is the ceiling, not the center, so
// concurrent clients retrying after a shared failure spread across the
// whole window.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		seed := time.Now().UnixNano()
		if c.Retry != nil && c.Retry.Seed != 0 {
			seed = c.Retry.Seed
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	return 1 + time.Duration(c.rng.Int63n(int64(d)))
}

// retryable reports whether err is worth another attempt: a 503 (queue
// full, graceful shutdown) or a transport failure (connection reset,
// refused). Context cancellation and client-side errors (4xx) are not.
func retryable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status == http.StatusServiceUnavailable
	}
	// Anything else that survived request construction is a transport
	// error (net.OpError, unexpected EOF, ...).
	return true
}

// attempt performs one HTTP round trip against base.
func (c *Client) attempt(ctx context.Context, base, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Method: method, Path: path, Status: resp.StatusCode}
		var e errorJSON
		if json.NewDecoder(resp.Body).Decode(&e) == nil {
			se.Message = e.Error
		}
		return se
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// doJSONAt runs the retry loop against one base URL.
func (c *Client) doJSONAt(ctx context.Context, base, method, path string, data []byte, out any) error {
	pol := c.policy()
	backoff := pol.BaseBackoff
	var err error
	for att := 1; ; att++ {
		err = c.attempt(ctx, base, method, path, data, out)
		if err == nil || att >= pol.MaxAttempts || !retryable(ctx, err) {
			return err
		}
		t := time.NewTimer(c.jitter(backoff))
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return fmt.Errorf("service: encoding request: %w", err)
		}
	}
	return c.doJSONAt(ctx, c.anyBase(), method, path, data, out)
}

// anyBase returns BaseURL, or the first peer when only Peers is set —
// good enough for the read-only endpoints (health, metrics, listings).
func (c *Client) anyBase() string {
	if c.BaseURL != "" {
		return c.BaseURL
	}
	peers := c.RingPeers()
	if len(peers) == 0 {
		return ""
	}
	return peers[0]
}

// RingPeers returns the peer set the client currently dispatches over:
// the Peers it was constructed with, or the membership adopted by the
// most recent RefreshRing.
func (c *Client) RingPeers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring != nil {
		return append([]string(nil), c.ring.peers...)
	}
	return append([]string(nil), c.Peers...)
}

// RefreshRing asks the cluster for its current membership (GET
// /v1/ring) and swaps the client-side ring to match, so a long-lived
// client follows joins, leaves and deaths without reconstruction. The
// first configured peer to answer wins; members the cluster judges
// dead are excluded. Called automatically after a dispatch pass fails
// on every peer, and callable directly after topology changes.
func (c *Client) RefreshRing(ctx context.Context) error {
	sources := c.RingPeers()
	if len(sources) == 0 && c.BaseURL != "" {
		sources = []string{c.BaseURL}
	}
	var lastErr error = errors.New("service: no peers configured")
	for _, peer := range sources {
		view, err := c.fetchRing(ctx, peer)
		if err != nil {
			lastErr = err
			continue
		}
		var next []string
		for _, m := range view.Members {
			if m.Status != memberDead.String() {
				next = append(next, m.URL)
			}
		}
		if len(next) == 0 {
			lastErr = fmt.Errorf("service: peer %s reported an empty ring", peer)
			continue
		}
		c.mu.Lock()
		c.Peers = next
		c.ring = newRing(next)
		c.mu.Unlock()
		return nil
	}
	return fmt.Errorf("service: ring refresh failed: %w", lastErr)
}

// fetchRing GETs and validates one peer's /v1/ring view.
func (c *Client) fetchRing(ctx context.Context, peer string) (RingView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/ring", nil)
	if err != nil {
		return RingView{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return RingView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return RingView{}, &StatusError{Method: http.MethodGet, Path: "/v1/ring", Status: resp.StatusCode}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRingBodyBytes))
	if err != nil {
		return RingView{}, err
	}
	return decodeRingView(body)
}

// Schedule submits one scheduling request. Transient failures are
// retried per the client's RetryPolicy. Single-node mode keeps PR 5's
// per-algorithm circuit breaker; multi-node mode dispatches to the
// ring owner of the request and fails over along the ring, skipping
// peers whose circuit is open. When every peer is down the last error
// (or ErrCircuitOpen, if every circuit was open) is returned.
func (c *Client) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	pol := c.policy()
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("service: encoding request: %w", err)
	}
	if c.numPeers() >= 2 {
		return c.scheduleRing(ctx, pol, &req, data)
	}
	if wait, open := c.algBr.allow(req.Algorithm, pol.BreakerThreshold); open {
		return nil, fmt.Errorf("%w for algorithm %q (retry after %s)", ErrCircuitOpen, req.Algorithm, wait.Round(time.Millisecond))
	}
	var out ScheduleResponse
	err = c.doJSONAt(ctx, c.anyBase(), http.MethodPost, "/v1/schedule", data, &out)
	c.algBr.observe(req.Algorithm, pol.BreakerThreshold, pol.BreakerCooldown, err)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// scheduleRing dispatches one request across the peer ring: owner
// first, then the ring successors. Each peer gets a single attempt —
// failover to the next node is the retry — and feeds its per-peer
// circuit breaker. A pass that fails on every peer triggers one ring
// refresh (the configured view may be stale — nodes died, others
// joined) and one more pass over the refreshed membership.
func (c *Client) scheduleRing(ctx context.Context, pol RetryPolicy, req *ScheduleRequest, data []byte) (*ScheduleResponse, error) {
	key := requestKey(req)
	for pass := 0; ; pass++ {
		order := c.peerRing().successors(key)
		var lastErr error
		for _, peer := range order {
			if wait, open := c.peerBr.allow(peer, pol.BreakerThreshold); open {
				if lastErr == nil {
					lastErr = fmt.Errorf("%w for peer %s (retry after %s)", ErrCircuitOpen, peer, wait.Round(time.Millisecond))
				}
				continue
			}
			var out ScheduleResponse
			err := c.attempt(ctx, peer, http.MethodPost, "/v1/schedule", data, &out)
			c.peerBr.observe(peer, pol.BreakerThreshold, pol.BreakerCooldown, err)
			if err == nil {
				return &out, nil
			}
			if !retryable(ctx, err) {
				return nil, err
			}
			lastErr = err
		}
		if lastErr == nil {
			lastErr = errors.New("service: no peers configured")
		}
		if pass == 0 && c.RefreshRing(ctx) == nil {
			continue
		}
		return nil, fmt.Errorf("service: all %d peers failed: %w", len(order), lastErr)
	}
}

// ScheduleBatch submits a batch of scheduling requests to
// /v1/schedule/batch and returns the ordered per-item results. In
// multi-node mode batches are round-robined across peers (a batch is
// fanned out by whichever node receives it, consulting the owning
// peers' caches per item), skipping peers with an open circuit and
// failing over on transient errors.
func (c *Client) ScheduleBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	pol := c.policy()
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("service: encoding batch: %w", err)
	}
	if c.numPeers() < 2 {
		var out BatchResponse
		if err := c.doJSONAt(ctx, c.anyBase(), http.MethodPost, "/v1/schedule/batch", data, &out); err != nil {
			return nil, err
		}
		return &out, nil
	}
	for pass := 0; ; pass++ {
		peers := c.peerRing().peers
		c.mu.Lock()
		start := int(c.batchSeq % uint64(len(peers)))
		c.batchSeq++
		c.mu.Unlock()
		var lastErr error
		for i := 0; i < len(peers); i++ {
			peer := peers[(start+i)%len(peers)]
			if _, open := c.peerBr.allow(peer, pol.BreakerThreshold); open {
				continue
			}
			var out BatchResponse
			err := c.attempt(ctx, peer, http.MethodPost, "/v1/schedule/batch", data, &out)
			c.peerBr.observe(peer, pol.BreakerThreshold, pol.BreakerCooldown, err)
			if err == nil {
				return &out, nil
			}
			if !retryable(ctx, err) {
				return nil, err
			}
			lastErr = err
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("%w for every peer", ErrCircuitOpen)
		}
		// Same stale-view escape hatch as scheduleRing: refresh once,
		// then one more round-robin pass over the new membership.
		if pass == 0 && c.RefreshRing(ctx) == nil {
			continue
		}
		return nil, fmt.Errorf("service: batch failed on all peers: %w", lastErr)
	}
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the server's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	var out MetricsSnapshot
	if err := c.doJSON(ctx, http.MethodGet, "/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Algorithms lists the server's algorithm registry.
func (c *Client) Algorithms(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.doJSON(ctx, http.MethodGet, "/v1/algorithms", nil, &out); err != nil {
		return nil, err
	}
	return out["algorithms"], nil
}

// CommModels lists the communication-model kinds the server accepts in
// ScheduleRequest.CommModel.
func (c *Client) CommModels(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.doJSON(ctx, http.MethodGet, "/v1/algorithms", nil, &out); err != nil {
		return nil, err
	}
	return out["commModels"], nil
}
