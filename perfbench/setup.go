package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"dagsched"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/service"
	"dagsched/internal/stream"
	"dagsched/internal/testfix"
)

// sizes fixes every input size of a run. full is the benchmark of
// record; quick shrinks every size so the self-test can drive each
// workload end to end in seconds.
type sizes struct {
	bigN, ilsN    int // offline: the 100k kernel instance and the ILS instance
	hot, distinct int // serving request pool: hot set and distinct cycle
	topoN, shufN  int // stream logs
	seqLen        int // request sequence length before it wraps
	countReqs     int // requests in the traced run's count pass
	serveN        [3]int
}

var fullSizes = sizes{
	bigN: 100000, ilsN: 1000,
	// The distinct pool is 4x the schedd default cache capacity (256),
	// so a distinct request's next occurrence always misses.
	hot: 64, distinct: 1024,
	topoN: 10000, shufN: 5000,
	seqLen: 20000, countReqs: 300,
	serveN: [3]int{30, 300, 100},
}

var quickSizes = sizes{
	bigN: 2000, ilsN: 100,
	hot: 20, distinct: 40,
	topoN: 300, shufN: 200,
	seqLen:    2000,
	countReqs: 40,
	serveN:    [3]int{30, 60, 40},
}

// reqClass is one request class of the serving mix.
type reqClass struct {
	name  string
	alg   string
	share float64
}

// classes is the serving mix: 60% HEFT n=30, 25% HEFT n=300 and 15% ILS
// n=100 (sizes come from sizes.serveN, in this order).
var classes = []reqClass{
	{"heft30", "HEFT", 0.60},
	{"heft300", "HEFT", 0.25},
	{"ils100", "ILS", 0.15},
}

// request is one pooled serving request with the makespan the library
// computes for it, the oracle its response is checked against.
type request struct {
	class int
	req   service.ScheduleRequest
	want  float64
}

// streamLog is one NDJSON event log with its static oracle digest.
type streamLog struct {
	name   string
	ndjson []byte
	batch  int
	events int
	sys    *platform.System
	digest string
}

// inputs is everything a run feeds the program, generated from the seed
// before any timing starts.
type inputs struct {
	big, ils *sched.Instance
	pool     []request // hot set first, then the distinct cycle
	seq      []int     // arrival order as indices into pool
	logs     []streamLog
}

// instance draws a layered random DAG of n tasks on P=8 processors at
// CCR 1 and heterogeneity 1, the design point of the scale sweep.
func instance(n int, rng *rand.Rand) (*sched.Instance, error) {
	g, err := dagsched.RandomDAG(dagsched.RandomDAGConfig{N: n}, rng)
	if err != nil {
		return nil, err
	}
	return dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
}

// itemSeed gives each generated item its own stream so the pool can be
// built in parallel and still depend only on the workload seed.
func itemSeed(seed int64, salt, i int) int64 { return seed*1_000_003 + int64(salt)*100_003 + int64(i) }

func setup(sz sizes, seed int64) (*inputs, error) {
	in := &inputs{}
	var err error
	if in.big, err = instance(sz.bigN, rand.New(rand.NewSource(itemSeed(seed, 1, 0)))); err != nil {
		return nil, err
	}
	if in.ils, err = instance(sz.ilsN, rand.New(rand.NewSource(itemSeed(seed, 2, 0)))); err != nil {
		return nil, err
	}
	if in.pool, err = makePool(sz, seed); err != nil {
		return nil, err
	}
	in.seq = makeSequence(sz, seed, in.pool)
	if in.logs, err = makeLogs(sz, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// split divides total items among the classes by their shares.
func split(total int) [3]int {
	var n [3]int
	left := total
	for c := 0; c < len(classes)-1; c++ {
		n[c] = int(math.Round(classes[c].share * float64(total)))
		left -= n[c]
	}
	n[len(classes)-1] = left
	return n
}

// poolClasses lays out the pool: the hot set, then the distinct pool,
// each holding every class in proportion to its share.
func poolClasses(sz sizes) []int {
	var out []int
	for _, total := range []int{sz.hot, sz.distinct} {
		for c, n := range split(total) {
			for i := 0; i < n; i++ {
				out = append(out, c)
			}
		}
	}
	return out
}

// makePool builds the hot set and the distinct pool and schedules every
// request through the library to get its expected makespan.
func makePool(sz sizes, seed int64) ([]request, error) {
	cls := poolClasses(sz)
	pool := make([]request, len(cls))
	errs := make([]error, len(pool))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += workers {
				pool[i], errs[i] = makeRequest(sz, seed, i, cls[i])
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return pool, nil
}

func makeRequest(sz sizes, seed int64, i, c int) (request, error) {
	rng := rand.New(rand.NewSource(itemSeed(seed, 3, i)))
	inst, err := instance(sz.serveN[c], rng)
	if err != nil {
		return request{}, err
	}
	var buf bytes.Buffer
	if err := inst.WriteJSON(&buf); err != nil {
		return request{}, err
	}
	a, err := dagsched.AlgorithmByName(classes[c].alg)
	if err != nil {
		return request{}, err
	}
	s, err := a.Schedule(inst)
	if err != nil {
		return request{}, err
	}
	return request{
		class: c,
		req:   service.ScheduleRequest{Algorithm: classes[c].alg, Instance: buf.Bytes()},
		want:  s.Makespan(),
	}, nil
}

// Arrivals are stratified: every classBlock consecutive arrivals hold
// each class in exact proportion, and every hotBlock hold exactly
// hotShare hot requests, in a seeded random order within the block. An
// unstratified draw lets runs of heavy requests cluster, and where they
// land in a phase moved its p99 by 2x between seeds.
const (
	classBlock = 20
	hotBlock   = 10
	hotShare   = 0.30
)

// makeSequence draws the arrival order. A hot arrival picks a random hot
// request of its class; a distinct arrival takes the next request of its
// class from the distinct pool, cycling, so it recurs only after every
// other distinct request of that class.
func makeSequence(sz sizes, seed int64, pool []request) []int {
	rng := rand.New(rand.NewSource(itemSeed(seed, 4, 0)))
	var hot, distinct [3][]int
	for i, r := range pool {
		if i < sz.hot {
			hot[r.class] = append(hot[r.class], i)
		} else {
			distinct[r.class] = append(distinct[r.class], i)
		}
	}
	block := func(counts []int) []int {
		var b []int
		for v, n := range counts {
			for i := 0; i < n; i++ {
				b = append(b, v)
			}
		}
		return b
	}
	cb := split(classBlock)
	classOrder := block(cb[:])
	hotOrder := block([]int{hotBlock - int(hotShare*hotBlock), int(hotShare * hotBlock)})
	var next [3]int
	seq := make([]int, sz.seqLen)
	for k := range seq {
		if k%classBlock == 0 {
			rng.Shuffle(len(classOrder), func(i, j int) { classOrder[i], classOrder[j] = classOrder[j], classOrder[i] })
		}
		if k%hotBlock == 0 {
			rng.Shuffle(len(hotOrder), func(i, j int) { hotOrder[i], hotOrder[j] = hotOrder[j], hotOrder[i] })
		}
		c := classOrder[k%classBlock]
		if hotOrder[k%hotBlock] == 1 {
			seq[k] = hot[c][rng.Intn(len(hot[c]))]
		} else {
			seq[k] = distinct[c][next[c]%len(distinct[c])]
			next[c]++
		}
	}
	return seq
}

// makeLogs builds the two stream logs: "topo" feeds tasks in topological
// order in batches of 8, which keeps the engine on its incremental path;
// "shuffled" feeds them in random order in batches of 32, which forces
// it onto its full re-plan fallback.
func makeLogs(sz sizes, seed int64) ([]streamLog, error) {
	specs := []struct {
		name    string
		n       int
		batch   int
		shuffle bool
	}{
		{"topo", sz.topoN, 8, false},
		{"shuffled", sz.shufN, 32, true},
	}
	logs := make([]streamLog, len(specs))
	for k, sp := range specs {
		rng := rand.New(rand.NewSource(itemSeed(seed, 5, k)))
		inst, err := instance(sp.n, rng)
		if err != nil {
			return nil, err
		}
		arrival := make([]dag.TaskID, sp.n)
		for i := range arrival {
			arrival[i] = dag.TaskID(i)
		}
		if sp.shuffle {
			rng.Shuffle(len(arrival), func(i, j int) { arrival[i], arrival[j] = arrival[j], arrival[i] })
		}
		evs, err := stream.InstanceEvents(inst, arrival)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := stream.WriteEvents(&buf, evs); err != nil {
			return nil, err
		}
		oracle, err := stream.StaticInstance(evs, inst.Sys, "")
		if err != nil {
			return nil, err
		}
		a, err := dagsched.AlgorithmByName(streamAlg)
		if err != nil {
			return nil, err
		}
		s, err := a.Schedule(oracle)
		if err != nil {
			return nil, err
		}
		logs[k] = streamLog{name: sp.name, ndjson: buf.Bytes(), batch: sp.batch, events: len(evs),
			sys: inst.Sys, digest: testfix.ScheduleDigest(s)}
	}
	return logs, nil
}
