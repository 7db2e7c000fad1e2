package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dagsched/internal/stream"
	"dagsched/internal/testfix"
)

const streamAlg = "HEFT"

// replay is one pass of a log through ReadEvents and Engine.Apply.
type replay struct {
	decode, total, ingest, flush time.Duration
	flushMs                      []float64
	// With a calibrator, scaled is the replay's CPU time and
	// scaledFlushMs each flush's, calibrated chunk by chunk.
	scaled        time.Duration
	scaledFlushMs []float64
	// Sums of the Delta fields over the log's flushes; tasks sums the
	// graph size at each flush.
	rankRepaired, fullRanks, replanned, fullReplans, tasks int64
}

// streamChunk is how long a calibrated replay applies events between
// two reference units.
const streamChunk = 500 * time.Millisecond

// replayLog decodes lg and applies every event to a fresh engine, timing
// each Apply; an Apply that returns a delta is a flush. The sealed
// schedule must match the static oracle digest (streaming at horizon zero
// is static scheduling). With a calibrator the replay also measures its
// CPU time and each flush's, on one OS thread; the decode and every
// streamChunk of Applies run between two reference units, which scale
// those CPU times chunk by chunk. With a tracer, the decode, each flush
// and the non-flushing Applies are recorded as spans under parent.
func replayLog(lg *streamLog, tr *tracer, parent int, cal *calibrator) (replay, error) {
	var r replay
	var before sample
	var flushCPU []float64
	if cal != nil {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		before = cal.ref()
	}
	cpu := func() time.Duration {
		if cal == nil {
			return 0
		}
		return threadCPU()
	}
	// chunk ends a calibrated chunk that took d of process CPU time and
	// whose flushes start at flushCPU[from].
	chunkCPU := processCPU()
	chunk := func(from int) {
		if cal == nil {
			return
		}
		d := processCPU() - chunkCPU
		after := cal.ref()
		f := factor(before, after)
		before = after
		r.scaled += time.Duration(float64(d) * f)
		for _, v := range flushCPU[from:] {
			r.scaledFlushMs = append(r.scaledFlushMs, v*f)
		}
		chunkCPU = processCPU()
	}
	start := time.Now()
	evs, err := stream.ReadEvents(bytes.NewReader(lg.ndjson))
	r.decode = time.Since(start)
	if err != nil {
		return r, fmt.Errorf("%s: decoding: %w", lg.name, err)
	}
	chunk(0)
	if tr != nil {
		tr.add("stream.decode."+lg.name, parent, 0, start, start.Add(r.decode), r.decode, 1)
	}
	eng, err := stream.NewEngine(stream.Config{Algorithm: streamAlg, Sys: lg.sys, BatchSize: lg.batch})
	if err != nil {
		return r, err
	}
	r.flushMs = make([]float64, 0, len(evs)/lg.batch+2)
	applyStart := time.Now()
	chunkStart, chunkFlush := applyStart, 0
	var ingested int64
	for i, ev := range evs {
		t0, c0 := time.Now(), cpu()
		d, err := eng.Apply(ev)
		t1, c1 := time.Now(), cpu()
		if err != nil {
			return r, fmt.Errorf("%s: event %d: %w", lg.name, i, err)
		}
		if d == nil {
			r.ingest += t1.Sub(t0)
			ingested++
		} else {
			r.flush += t1.Sub(t0)
			r.flushMs = append(r.flushMs, ms(t1.Sub(t0)))
			flushCPU = append(flushCPU, ms(c1-c0))
			if tr != nil {
				tr.add("stream.flush."+lg.name, parent, 0, t0, t1, t1.Sub(t0), 1)
				r.rankRepaired += int64(d.RankRepaired)
				r.replanned += int64(d.Replanned)
				if d.FullRanks {
					r.fullRanks++
				}
				if d.FullReplan {
					r.fullReplans++
				}
				r.tasks += int64(d.Tasks)
			}
		}
		if cal != nil && t1.Sub(chunkStart) >= streamChunk {
			r.total += t1.Sub(chunkStart)
			chunk(chunkFlush)
			chunkStart, chunkFlush = time.Now(), len(flushCPU)
		}
	}
	end := time.Now()
	r.total += end.Sub(chunkStart) + r.decode
	chunk(chunkFlush)
	if tr != nil {
		tr.add("stream.ingest."+lg.name, parent, 0, applyStart, end, r.ingest, ingested)
	}
	if !eng.Sealed() {
		return r, fmt.Errorf("%s: log did not seal", lg.name)
	}
	if testfix.ScheduleDigest(eng.Schedule()) != lg.digest {
		return r, wrong(fmt.Errorf("%s: sealed schedule diverges from the static oracle", lg.name))
	}
	return r, nil
}

// streamSamples collects one run's stream timings: CPU times
// calibrated, and the raw wall times.
type streamSamples struct {
	eventsPerS, rawEventsPerS map[string][]float64
	topoFlushMs, rawFlushMs   []float64
}

// runStream replays each log once, in chunks between reference units;
// each replay is one attempt. The topo log's flush p90 rests on about
// 3,600 flushes.
func runStream(in *inputs, tal *tally, cal *calibrator) streamSamples {
	out := streamSamples{eventsPerS: map[string][]float64{}, rawEventsPerS: map[string][]float64{}}
	for k := range in.logs {
		lg := &in.logs[k]
		r, err := replayLog(lg, nil, 0, cal)
		if !tal.check("stream", err) {
			continue
		}
		out.eventsPerS[lg.name] = append(out.eventsPerS[lg.name], float64(lg.events)/r.scaled.Seconds())
		out.rawEventsPerS[lg.name] = append(out.rawEventsPerS[lg.name], float64(lg.events)/r.total.Seconds())
		if lg.name == "topo" {
			out.topoFlushMs = append(out.topoFlushMs, r.scaledFlushMs...)
			out.rawFlushMs = append(out.rawFlushMs, r.flushMs...)
		}
	}
	return out
}

// traceStream replays each log once untraced and once traced, reporting
// the per-layer stream metrics and the tracing overhead.
func traceStream(in *inputs, tr *tracer, tal *tally, out metrics) {
	var plain, traced time.Duration
	for k := range in.logs {
		lg := &in.logs[k]
		p, err := replayLog(lg, nil, 0, nil)
		if !tal.check("stream", err) {
			continue
		}
		root := tr.begin("stream."+lg.name, 0, 0)
		r, err := replayLog(lg, tr, root, nil)
		tr.finish(root)
		if !tal.check("stream traced", err) {
			continue
		}
		plain += p.total
		traced += r.total
		out.set("stream.decode_ms."+lg.name, ms(r.decode), "ms")
		out.set("stream.ingest_ms."+lg.name, ms(r.ingest), "ms")
		out.set("stream.flush_ms."+lg.name, ms(r.flush), "ms")
		out.set("stream.flush_p50_ms."+lg.name, median(r.flushMs), "ms")
		out.set("stream.rank_repaired."+lg.name, float64(r.rankRepaired), "count")
		out.set("stream.full_ranks."+lg.name, float64(r.fullRanks), "count")
		out.set("stream.replanned."+lg.name, float64(r.replanned), "count")
		out.set("stream.full_replans."+lg.name, float64(r.fullReplans), "count")
		out.set("stream.replan_ratio."+lg.name, ratio(float64(r.replanned), float64(r.tasks)), "ratio")
	}
	out.set("trace.overhead_pct.stream", 100*(ratio(float64(traced), float64(plain))-1), "%")
}
