// Command perfbench is dagsched's benchmark of record. One run sets up
// every input from the seed, then measures the offline kernel, the
// serving tier and the streaming engine through their public calls and
// prints one JSON result as its last line of output:
//
//	go run . --workload serve-1node --seed 1 --seconds 50 --trace 0
//
// Workloads differ in the serving tier: serve-1node loads one schedd,
// serve-3node a three-node ring. --trace 0 prints the end-to-end
// metrics; --trace 1 runs the traced pass instead, prints the per-layer
// metrics and writes its spans to --spans. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload to its number of schedd nodes.
var workloads = map[string]int{"serve-1node": 1, "serve-3node": 3}

// serveShare is the percentage of --seconds the serving cycles take. The
// stream replays follow, fixed work of 6 to 10 s on a 2-core Xeon VM
// depending on how busy its host is, and the offline rounds take the
// rest.
const serveShare = 30

// setupReps is how many times a run sets everything up; setup_s is the
// median of their CPU times, each scaled by the reference units up to
// setupWindow away (see calib.go).
const (
	setupReps   = 3
	setupWindow = 2
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: %s has no samples (%v); reported as 0\n", name, v)
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// wrongOutput marks an error as a wrong answer rather than a refusal.
type wrongOutput struct{ error }

func wrong(err error) error { return wrongOutput{err} }

// tally counts checked outputs: every library call, request and replay
// is one attempt; an error or a wrong answer is a failure.
type tally struct {
	mu                        sync.Mutex
	attempted, failed, wrongs int64
	errs                      []string
}

// check records one attempt and reports whether it succeeded.
func (t *tally) check(what string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	var w wrongOutput
	if errors.As(err, &w) {
		t.wrongs++
	}
	if len(t.errs) < 10 {
		t.errs = append(t.errs, what+": "+err.Error())
	}
	return false
}

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-1node or serve-3node")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 50, "measuring time in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		spans    = flag.String("spans", "", "where the traced pass writes its spans (default .bench_build/spans/<workload>-<seed>.ndjson)")
	)
	flag.Parse()
	nodes, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve-1node|serve-3node, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans/%s-%d.ndjson", *workload, *seed)
	}
	res, err := run(context.Background(), runConfig{
		nodes: nodes, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *traced == 1, sizes: fullSizes, spans: *spans, label: *workload,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type runConfig struct {
	nodes  int
	seed   int64
	budget time.Duration
	trace  bool
	sizes  sizes
	spans  string
	label  string
}

// host describes where a run was measured.
func host(cfg runConfig) map[string]any {
	name, _ := os.Hostname()
	return map[string]any{
		"workload": cfg.label, "seed": cfg.seed, "trace": cfg.trace,
		"host": name, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// logJSON prints one context line; only the last line is the result.
func logJSON(w io.Writer, v any) {
	if b, err := json.Marshal(v); err == nil {
		fmt.Fprintln(w, string(b))
	}
}

// run sets up and measures one workload. Errors are set-up failures: the
// run cannot produce a result. Failures of the program under test are
// counted in the result instead.
func run(ctx context.Context, cfg runConfig, log io.Writer) (*result, error) {
	logJSON(log, host(cfg))
	steal := readCPU()
	inflight := runtime.NumCPU()
	cal := newCalibrator()
	var in *inputs
	var c *cluster
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	type setupRep struct {
		took time.Duration
		i, j int // reference units before and after
	}
	var setups []setupRep
	for i := 0; i < reps; i++ {
		if c != nil {
			c.close()
		}
		in, c = nil, nil
		runtime.GC()
		rep := setupRep{i: cal.mark()}
		var err error
		cal.around(func() {
			start := processCPU()
			if in, err = setup(cfg.sizes, cfg.seed); err != nil {
				err = fmt.Errorf("setup: %w", err)
				return
			}
			if c, err = startCluster(cfg.nodes, inflight, cfg.seed); err != nil {
				err = fmt.Errorf("starting schedd: %w", err)
				return
			}
			err = c.waitReady(ctx)
			rep.took = processCPU() - start
		})
		if err != nil {
			if c != nil {
				c.close()
			}
			return nil, err
		}
		rep.j = cal.mark()
		setups = append(setups, rep)
	}
	var tal tally
	out := metrics{}
	if cfg.trace {
		err := runTraced(ctx, cfg, c, in, inflight, &tal, out)
		c.close()
		if err != nil {
			return nil, err
		}
	} else {
		t0 := time.Now()
		sv := runServe(ctx, c, in, cfg.budget*serveShare/100, inflight, &tal, cal)
		c.close()
		t1 := time.Now()
		st := runStream(in, &tal, cal)
		t2 := time.Now()
		off := runOffline(in, &tal, cal, t0.Add(cfg.budget))
		logJSON(log, map[string]any{"serve_s": t1.Sub(t0).Seconds(), "stream_s": t2.Sub(t1).Seconds(),
			"offline_s": time.Since(t2).Seconds()})
		var setupTimes, rawSetup []float64
		for _, r := range setups {
			setupTimes = append(setupTimes, r.took.Seconds()*cal.window(r.i, r.j, setupWindow))
			rawSetup = append(rawSetup, r.took.Seconds())
		}
		out.set("setup_s", median(setupTimes), "s")
		report(log, out, sv, off, st, rawSetup)
		out.set("success_rate", 1-ratio(float64(tal.failed), float64(tal.attempted)), "ratio")
		logJSON(log, cal.summary())
	}
	logJSON(log, map[string]any{"steal_pct": steal.since()})
	for _, e := range tal.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return &result{Correct: tal.wrongs == 0, Attempted: tal.attempted, Failed: tal.failed, Metrics: out}, nil
}

// runTraced is the per-layer run: traced kernel loops, serving count pass,
// replay and traced load, and stream replays, each recorded as spans.
func runTraced(ctx context.Context, cfg runConfig, c *cluster, in *inputs, inflight int, tal *tally, out metrics) error {
	tr := newTracer()
	if err := traceServe(ctx, c, in, cfg.sizes, cfg.budget/5, inflight, tr, tal, out); err != nil {
		return err
	}
	traceKernel(in, tr, tal, out)
	traceStream(in, tr, tal, out)
	return tr.write(cfg.spans)
}

// report turns one run's samples into the end-to-end metrics and logs
// the sample counts behind them and the raw, uncalibrated values.
func report(log io.Writer, out metrics, sv serveSamples, off offlineSamples, st streamSamples, rawSetup []float64) {
	for _, name := range []string{"low", "high"} {
		ph := sv.phases[name]
		out.set("serve_p50_ms."+name, quantile(ph.lat, 0.5), "ms")
		out.set("serve_p90_ms."+name, quantile(ph.lat, 0.9), "ms")
		raw := sv.raw[name]
		logJSON(log, map[string]any{"phase": name, "sent": ph.sent, "succeeded": ph.ok, "failed": ph.sent - ph.ok,
			"p99_ms": ph.p99(), "beyond_p99": beyond(ph.lat, 0.99), "raw_p50_ms": median(raw),
			"raw_p90_ms": quantile(raw, 0.9), "raw_p99_ms": quantile(raw, 0.99)})
	}
	out.set("serve_capacity_rps", median(sv.capacity), "1/s")
	logJSON(log, map[string]any{"phase": "capacity", "slices_rps": sv.capacity, "raw_slices_rps": sv.rawCapacity,
		"serve_steal_pct": sv.steal})
	for _, a := range offlineAlgs {
		out.set("sched_us_per_task."+a, median(off.usPerTask[a]), "us")
	}
	out.set("alloc_bytes_per_task", median(off.allocPerTask), "bytes")
	for _, name := range []string{"topo", "shuffled"} {
		out.set("stream_events_per_s."+name, median(st.eventsPerS[name]), "1/s")
	}
	out.set("stream_flush_p90_ms", quantile(st.topoFlushMs, 0.9), "ms")
	logJSON(log, map[string]any{"offline_rounds": off.rounds, "raw_us_per_task": off.rawUsPerTask, "offline_units": off.units,
		"raw_events_per_s": st.rawEventsPerS, "topo_flushes": len(st.topoFlushMs),
		"topo_flush_p99_ms": quantile(st.topoFlushMs, 0.99), "raw_flush_p90_ms": quantile(st.rawFlushMs, 0.9),
		"raw_setup_s": rawSetup})
}
