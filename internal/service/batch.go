package service

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
)

// handleBatch serves POST /v1/schedule/batch: many scheduling queries
// in one request, fanned out across the worker pool. Each item runs
// under its own deadline (its timeoutMs, or the server default) with
// partial-failure semantics — the batch answers 200 with per-item
// statuses as long as the envelope itself was well-formed — and the
// results array preserves request order. Items enqueue blocking (the
// queue backpressures a large batch instead of 503ing its tail), go
// down the same lookup ladder as single requests (local LRU, then the
// key's holders' caches, then compute), and coalesce with concurrent
// identical work.
//
// With "Accept: application/x-ndjson" the response streams instead:
// one BatchItemResult JSON line per item in completion order, flushed
// as each item finishes (a fast item is delivered while slow siblings
// still run), closed by a summary line {"succeeded":N,"failed":M}.
// Index identifies each result's request item.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var breq BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(&breq); err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	n := len(breq.Items)
	if n == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if n > s.opts.MaxBatchItems {
		writeError(w, http.StatusBadRequest, "batch of %d items exceeds the %d-item limit", n, s.opts.MaxBatchItems)
		return
	}
	s.met.ObserveBatch(n)
	reqID, _ := r.Context().Value(reqIDKey{}).(string)
	if wantsNDJSON(r) {
		s.streamBatch(w, r, reqID, breq.Items)
		return
	}
	results := make([]BatchItemResult, n)
	var wg sync.WaitGroup
	for i := range breq.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.runBatchItem(r, reqID, i, &breq.Items[i])
		}(i)
	}
	wg.Wait()
	out := BatchResponse{Items: results}
	for i := range results {
		if results[i].Status == http.StatusOK {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// wantsNDJSON reports whether the request opted into streamed NDJSON
// results.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamBatch fans the items out like the buffered path but writes
// each result as soon as it completes: one JSON line per item, flushed
// per line, then a summary trailer. The 200 status commits before the
// first item finishes, so per-item failures are in-band (Status/Error
// on the item line), exactly as in the buffered response body.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, reqID string, items []ScheduleRequest) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	results := make(chan BatchItemResult)
	for i := range items {
		go func(i int) {
			results <- s.runBatchItem(r, reqID, i, &items[i])
		}(i)
	}
	enc := json.NewEncoder(w)
	var succeeded, failed int
	for range items {
		res := <-results
		if res.Status == http.StatusOK {
			succeeded++
		} else {
			failed++
		}
		if err := enc.Encode(res); err != nil {
			// The client went away; drain the remaining goroutines and
			// stop writing.
			continue
		}
		_ = rc.Flush()
	}
	_ = enc.Encode(struct {
		Succeeded int `json:"succeeded"`
		Failed    int `json:"failed"`
	}{succeeded, failed})
	_ = rc.Flush()
}

// runBatchItem takes one batch item down the same lookup ladder as a
// single request (serve), with the status that request would have
// received. Items run on their own goroutines outside the instrument
// middleware, so panics are contained here — one poisoned item answers
// a per-item 500 while its siblings complete.
func (s *Server) runBatchItem(r *http.Request, reqID string, i int, item *ScheduleRequest) (res BatchItemResult) {
	res.Index = i
	itemID := fmt.Sprintf("%s#%d", reqID, i)
	defer func() {
		if p := recover(); p != nil {
			s.met.ObservePanic()
			log.Printf("service: panic in batch item %s: %v\n%s", itemID, p, debug.Stack())
			res = BatchItemResult{Index: i, Status: http.StatusInternalServerError,
				Error: fmt.Sprintf("internal error (request %s)", itemID)}
		}
	}()
	res.Response, res.Status, res.Error = s.serve(r.Context(), itemID, item, nil)
	return res
}
