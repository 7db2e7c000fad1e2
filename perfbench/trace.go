package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval, recorded by the benchmark around a call
// into one layer. Parent is the id of the span that caused it (0 for a
// root) and Req groups the spans of one request (0 outside the serving
// tier). Count > 1 marks an aggregate span: per-task kernel calls such as
// Plan.BestEFT run 100k times per schedule, too many to keep one record
// each, so one loop's calls fold into one span whose Busy is the sum of
// the call durations and Count their number. For a plain span Busy is
// End-Start and Count is 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Count  int64  `json:"count"`
}

// tracer keeps spans in memory until write; it is safe for concurrent
// use by the load generator's request goroutines.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time, busy time.Duration, count int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		Busy: int64(busy), Count: count,
	})
	return id
}

// begin opens a plain span and returns its id; finish closes it.
func (t *tracer) begin(name string, parent int, req int64) int {
	now := time.Now()
	return t.add(name, parent, req, now, now, 0, 1)
}

// finish closes the span opened by begin.
func (t *tracer) finish(id int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Busy = now, now-s.Start
}

// timed runs f inside a plain span.
func (t *tracer) timed(name string, parent int, req int64, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.finish(id)
}

// busy sums Busy and Count over every span with the given name.
func (t *tracer) busy(name string) (time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	var n int64
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.Busy)
			n += s.Count
		}
	}
	return d, n
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
