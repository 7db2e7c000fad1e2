package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dagsched/internal/platform"
	"dagsched/internal/sim"
)

// keyGraph is an indented bare graph whose task names need HTML
// escaping; keyInstance wraps it into an indented full instance.
const keyGraph = `{
  "tasks": [
    {"id": 0, "weight": 2, "name": "load<a&b>"},
    {"id": 1, "weight": 3, "name": "</script>"}
  ],
  "edges": [
    {"from": 0, "to": 1, "data": 1}
  ]
}`

var keyInstance = "{\n  \"graph\": " + keyGraph + ",\n  \"system\": {\"speeds\": [1, 1]}\n}"

// keyRequests covers every semantic field of a request: both payload
// forms, analyze, a faults block and each communication model.
func keyRequests() map[string]ScheduleRequest {
	reqs := map[string]ScheduleRequest{
		"instance": {Algorithm: "HEFT", Instance: json.RawMessage(keyInstance)},
		"graph": {Algorithm: "CPOP", Graph: json.RawMessage(keyGraph),
			Processors: 3, Latency: 0.25, TimePerUnit: 1.5},
		"analyze": {Algorithm: "HEFT", Instance: json.RawMessage(keyInstance), Analyze: true},
		"faults": {Algorithm: "HEFT", Graph: json.RawMessage(keyGraph), Faults: &FaultsRequest{
			Plan: &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 1, At: 2.5}}, Jitter: 0.1, Seed: 7},
			Rate: 0.2, Samples: 5, Seed: 3, Policy: "auto",
		}},
		"shared-link bandwidth": {Algorithm: "ILS", Instance: json.RawMessage(keyInstance),
			CommModel: platform.KindSharedLink, LinkBandwidth: 0.5},
	}
	for _, kind := range platform.ModelKinds() {
		reqs["comm "+kind] = ScheduleRequest{Algorithm: "HEFT", Instance: json.RawMessage(keyInstance), CommModel: kind}
	}
	return reqs
}

// TestRequestKeyRoundTrip pins client/server key agreement: the key a
// client computes from the request it is about to send equals the key
// the server computes from what it decoded, so ring placement and the
// server's shard ownership never disagree.
func TestRequestKeyRoundTrip(t *testing.T) {
	for name, req := range keyRequests() {
		t.Run(name, func(t *testing.T) {
			sent := requestKey(&req)
			if !validCacheKey(sent) {
				t.Fatalf("requestKey = %q, not a cache key", sent)
			}
			wire, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeRequest(wire)
			if err != nil {
				t.Fatal(err)
			}
			if k := requestKey(got); k != sent {
				t.Fatalf("client key %s, server key %s", sent, k)
			}
		})
	}
}

// TestRequestKeyIdentity pins what the key does and does not equate:
// serving knobs and whitespace never move it; every semantic field
// does, and the equivalences the key deliberately drops stay dropped.
func TestRequestKeyIdentity(t *testing.T) {
	base := ScheduleRequest{Algorithm: "HEFT", Instance: json.RawMessage(keyInstance)}
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(keyInstance)); err != nil {
		t.Fatal(err)
	}
	same := map[string]ScheduleRequest{
		"timeout":    {Algorithm: "HEFT", Instance: base.Instance, TimeoutMs: 1500},
		"priority":   {Algorithm: "HEFT", Instance: base.Instance, Priority: "low"},
		"whitespace": {Algorithm: "HEFT", Instance: compact.Bytes()},
	}
	for name, req := range same {
		if requestKey(&req) != requestKey(&base) {
			t.Errorf("%s variant changed the key", name)
		}
	}
	differ := map[string]ScheduleRequest{
		"algorithm":     {Algorithm: "CPOP", Instance: base.Instance},
		"analyze":       {Algorithm: "HEFT", Instance: base.Instance, Analyze: true},
		"key order":     {Algorithm: "HEFT", Instance: json.RawMessage(`{"system":{"speeds":[1,1]},"graph":` + keyGraph + `}`)},
		"number format": {Algorithm: "HEFT", Instance: json.RawMessage(strings.Replace(keyInstance, `"weight": 2`, `"weight": 2.0`, 1))},
		"graph form":    {Algorithm: "HEFT", Graph: json.RawMessage(keyGraph), Processors: 2},
		"explicit default model": {Algorithm: "HEFT", Instance: base.Instance,
			CommModel: platform.KindContentionFree},
	}
	for name, req := range differ {
		if requestKey(&req) == requestKey(&base) {
			t.Errorf("%s variant shares the base key", name)
		}
	}
}

// TestValidationBeforeLookup pins the ladder's order: the checks that
// need no instance run before any cache tier, so an invalid request is
// a 400 even when a cached entry sits under its exact key — on the
// single endpoint and per batch item alike.
func TestValidationBeforeLookup(t *testing.T) {
	s := New(Options{Workers: 1})
	valid := ScheduleRequest{Algorithm: "HEFT", Instance: json.RawMessage(keyInstance)}
	invalid := map[string]ScheduleRequest{
		"priority":           {Algorithm: "HEFT", Instance: valid.Instance, Priority: "urgent"},
		"instance and graph": {Algorithm: "HEFT", Instance: valid.Instance, Graph: json.RawMessage(keyGraph)},
		"empty algorithm":    {Instance: valid.Instance},
	}
	planted := &ScheduleResponse{Algorithm: "HEFT", Makespan: 42}
	s.cache.Put(requestKey(&valid), planted)
	for _, req := range invalid {
		s.cache.Put(requestKey(&req), planted)
	}
	post := func(path string, v any) *httptest.ResponseRecorder {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.httpSrv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	// The planted entries are live: the valid request is a cache hit.
	if rec := post("/v1/schedule", valid); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": true`) {
		t.Fatalf("valid request: HTTP %d %s, want a cache hit", rec.Code, rec.Body)
	}
	var items []ScheduleRequest
	for name, req := range invalid {
		if rec := post("/v1/schedule", req); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d %s, want 400 despite the cached entry", name, rec.Code, rec.Body)
		}
		items = append(items, req)
	}
	rec := post("/v1/schedule/batch", BatchRequest{Items: items})
	var out BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("batch: HTTP %d %s: %v", rec.Code, rec.Body, err)
	}
	if len(out.Items) != len(items) {
		t.Fatalf("batch: %d results for %d items", len(out.Items), len(items))
	}
	for i, it := range out.Items {
		if it.Status != http.StatusBadRequest {
			t.Errorf("batch item %d: status %d, want 400 despite the cached entry", i, it.Status)
		}
	}
}
