package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"dagsched"
	"dagsched/internal/testfix"
)

func TestQuantileAndRatio(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := beyond([]float64{1, 2, 3, 4, 100}, 0.5); got != 2 {
		t.Errorf("beyond = %d, want 2", got)
	}
	if ratio(3, 4) != 0.75 || ratio(1, 0) != 0 {
		t.Error("ratio")
	}
}

// The traced kernel loops are rebuilt from public calls; they must place
// every task exactly where the registry algorithms do.
func TestTracedMatchesRegistry(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in, err := instance(500, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		heft := tracedHEFT(in, tr)
		hlfet, scanned := tracedHLFET(in, tr)
		for _, c := range []struct {
			name string
			got  string
		}{{"HEFT", testfix.ScheduleDigest(heft)}, {"HLFET", testfix.ScheduleDigest(hlfet)}} {
			a, err := dagsched.AlgorithmByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := a.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			if c.got != testfix.ScheduleDigest(want) {
				t.Errorf("seed %d: traced %s diverges from the registry", seed, c.name)
			}
		}
		if scanned < int64(in.N()) {
			t.Errorf("ready_scan_entries %d < n %d", scanned, in.N())
		}
		if _, n := tr.busy("sched.insert"); n != int64(2*in.N()) {
			t.Errorf("sched.insert counts %d calls, want %d", n, 2*in.N())
		}
	}
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
	return endToEnd, perLayer
}

func quickRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), runConfig{
		nodes: workloads[workload], seed: seed, budget: 2 * time.Second, trace: trace,
		sizes: quickSizes, spans: t.TempDir() + "/spans.ndjson", label: workload,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// sameNames fails unless got reports exactly the declared metrics with
// the declared units.
func sameNames(t *testing.T, what string, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: declared metric %s not reported", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s unit %q, declared %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: reported metric %s not declared", what, name)
		}
	}
}

// Every workload runs end to end at quick sizes, with and without
// tracing, and reports exactly the metrics BENCHMARK.json declares; the
// end-to-end ones are never zero.
func TestQuickRunEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for w := range workloads {
		res := quickRun(t, w, 7, false)
		sameNames(t, w, res.Metrics, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
		traced := quickRun(t, w, 7, true)
		sameNames(t, w+" traced", traced.Metrics, perLayer)
		if w == "serve-1node" {
			for name, m := range traced.Metrics {
				// Tier local and miss count cache lookups on any node.
				node := name == "cluster.tier.local" || name == "cluster.tier.miss"
				if strings.HasPrefix(name, "cluster.") && !node && m.Value != 0 {
					t.Errorf("%s: %s = %v on one node, want 0", w, name, m.Value)
				}
			}
		} else if traced.Metrics["cluster.forward_ratio"].Value == 0 {
			t.Errorf("%s: no request was forwarded", w)
		}
	}
}

// exactCounts are the per-layer metrics taken as counts before and after
// a phase whose work depends on the seed alone.
func exactCounts(m metrics) map[string]float64 {
	out := map[string]float64{}
	for name, v := range m {
		timing := v.Unit == "ms" || v.Unit == "%"
		open := strings.HasPrefix(name, "service.status.") || name == "service.queue_depth_max" || name == "service.shed"
		if !timing && !open {
			out[name] = v.Value
		}
	}
	return out
}

// The per-layer counts repeat exactly for a fixed seed.
func TestCountsRepeat(t *testing.T) {
	for w := range workloads {
		a := exactCounts(quickRun(t, w, 3, true).Metrics)
		b := exactCounts(quickRun(t, w, 3, true).Metrics)
		if len(a) < 20 {
			t.Fatalf("%s: only %d exact counts", w, len(a))
		}
		for name, v := range a {
			if b[name] != v {
				t.Errorf("%s: %s = %v then %v", w, name, v, b[name])
			}
		}
	}
}
