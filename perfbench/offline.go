package main

import (
	"fmt"
	"runtime"
	"time"

	"dagsched"
	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

// kernelAlgs are timed on the 100k-task instance; ILS, the paper's
// algorithm, is timed on the 1k-task one.
var (
	kernelAlgs  = []string{"HEFT", "CPOP", "HLFET", "ISH"}
	offlineAlgs = append(kernelAlgs[:len(kernelAlgs):len(kernelAlgs)], ilsAlg)
)

const ilsAlg = "ILS"

// offlineSamples collects one run's kernel CPU times, calibrated and raw.
type offlineSamples struct {
	usPerTask, rawUsPerTask map[string][]float64
	units                   []any // per timed unit: algorithm, raw µs/task, reference CPU ms before and after
	allocPerTask            []float64
	rounds                  int
}

// timed is the wall and the process CPU time of one call.
type timed struct{ wall, cpu time.Duration }

// timeSchedule runs one library call and returns its times, the bytes
// it allocated and the schedule, validated. The CPU time includes the GC
// work the call causes on other threads; callers collect the heap first
// so that no call pays for garbage it did not make.
func timeSchedule(a dagsched.Algorithm, in *sched.Instance) (timed, uint64, *sched.Schedule, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start, cpu := time.Now(), processCPU()
	s, err := a.Schedule(in)
	d := timed{cpu: processCPU() - cpu, wall: time.Since(start)}
	runtime.ReadMemStats(&ms)
	if err != nil {
		return d, 0, nil, err
	}
	if err := s.Validate(); err != nil {
		return d, 0, nil, wrong(fmt.Errorf("%s: invalid schedule: %w", a.Name(), err))
	}
	return d, ms.TotalAlloc - before, s, nil
}

// A run schedules every kernel instance in rounds, at least
// minOfflineRounds and at most maxOfflineRounds times, and starts
// another round while it expects it to end by the run's deadline. The
// metrics are medians over rounds, so one round slowed by the first
// touch of a growing heap does not move them.
const (
	minOfflineRounds = 3
	maxOfflineRounds = 8
)

// runOffline schedules the kernel instance with every kernel algorithm
// and the ILS instance with ILS, round after round until the deadline.
// Each call is one attempt; an error or an invalid schedule is one
// failure.
func runOffline(in *inputs, tal *tally, cal *calibrator, deadline time.Time) offlineSamples {
	out := offlineSamples{usPerTask: map[string][]float64{}, rawUsPerTask: map[string][]float64{}}
	algs := make([]dagsched.Algorithm, 0, len(offlineAlgs))
	for _, name := range offlineAlgs {
		a, err := dagsched.AlgorithmByName(name)
		if err != nil {
			panic(err) // the registry names are fixed at compile time
		}
		algs = append(algs, a)
	}
	type unit struct {
		alg  string
		us   float64
		i, j int // reference units before and after
	}
	var units []unit
	start := time.Now()
	for ; out.rounds < minOfflineRounds || out.rounds < maxOfflineRounds &&
		time.Now().Add(time.Since(start)/time.Duration(out.rounds)).Before(deadline); out.rounds++ {
		var alloc uint64
		for _, a := range algs {
			inst, reps := in.big, 1
			if a.Name() == ilsAlg {
				inst, reps = in.ils, ilsReps
			}
			var ds []float64
			i := cal.mark()
			cal.around(func() {
				// One collection per algorithm: the ILS calls together
				// allocate too little to start one, and collecting the
				// inputs' heap before each would double the round.
				runtime.GC()
				for k := 0; k < reps; k++ {
					d, b, _, err := timeSchedule(a, inst)
					if !tal.check("offline", err) {
						continue
					}
					ds = append(ds, float64(d.cpu)/1e3/float64(inst.N()))
					if a.Name() != ilsAlg {
						alloc += b
					}
				}
			})
			if len(ds) > 0 {
				units = append(units, unit{a.Name(), median(ds), i, cal.mark()})
			}
		}
		out.allocPerTask = append(out.allocPerTask, float64(alloc)/float64(len(kernelAlgs)*in.big.N()))
	}
	for k := 0; k < offlineWindow; k++ {
		cal.ref()
	}
	for _, u := range units {
		out.usPerTask[u.alg] = append(out.usPerTask[u.alg], u.us*cal.window(u.i, u.j, offlineWindow))
		out.rawUsPerTask[u.alg] = append(out.rawUsPerTask[u.alg], u.us)
		out.units = append(out.units, []any{u.alg, u.us, ms(cal.refs[u.i].cpu), ms(cal.refs[u.j].cpu)})
	}
	return out
}

// offlineWindow is how many reference units on either side of a kernel
// call its scale also takes into account.
const offlineWindow = 2

// ilsReps is how many times a round schedules the ILS instance: one
// call takes about 20 ms, too short to time once.
const ilsReps = 15

// tracedHEFT is HEFT built from the public calls the registry HEFT
// makes: upward ranks, precedence-respecting order, then per task the
// best insertion EFT and its placement.
func tracedHEFT(in *sched.Instance, tr *tracer) *sched.Schedule {
	root := tr.begin("kernel.HEFT", 0, 0)
	defer tr.finish(root)
	var rank []float64
	tr.timed("sched.rank.HEFT", root, 0, func() { rank = sched.RankUpward(in) })
	var order []dag.TaskID
	tr.timed("algo.order", root, 0, func() { order = algo.OrderDescPrecedence(in.G, rank) })
	pl := sched.NewPlan(in)
	loopStart := time.Now()
	var sel, ins time.Duration
	for _, t := range order {
		t0 := time.Now()
		p, s, _ := pl.BestEFT(t, true)
		t1 := time.Now()
		pl.Place(t, p, s)
		t2 := time.Now()
		sel += t1.Sub(t0)
		ins += t2.Sub(t1)
	}
	tr.add("sched.select.HEFT", root, 0, loopStart, time.Now(), sel, int64(len(order)))
	tr.add("sched.insert", root, 0, loopStart, time.Now(), ins, int64(len(order)))
	var s *sched.Schedule
	tr.timed("sched.finalize", root, 0, func() { s = pl.Finalize("HEFT") })
	return s
}

// tracedHLFET is HLFET built from public calls: static levels, then a
// ready list from which the highest-level task is picked by a scan of
// Ready(), placed on the processor giving the earliest non-insertion
// start, and completed.
func tracedHLFET(in *sched.Instance, tr *tracer) (*sched.Schedule, int64) {
	root := tr.begin("kernel.HLFET", 0, 0)
	defer tr.finish(root)
	var sl []float64
	tr.timed("sched.rank.HLFET", root, 0, func() { sl = sched.StaticLevel(in) })
	pl := sched.NewPlan(in)
	rl := algo.NewReadyList(in.G)
	loopStart := time.Now()
	var pick, sel, ins, complete time.Duration
	var scanned, picks int64
	for !rl.Empty() {
		t0 := time.Now()
		ready := rl.Ready()
		scanned += int64(len(ready))
		var best dag.TaskID = -1
		for _, r := range ready {
			if best == -1 || sl[r] > sl[best] {
				best = r
			}
		}
		t1 := time.Now()
		bestP, bestS := -1, 0.0
		for p := 0; p < in.P(); p++ {
			s, _ := pl.EFTOn(best, p, false)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
			}
		}
		t2 := time.Now()
		pl.Place(best, bestP, bestS)
		t3 := time.Now()
		rl.Complete(best)
		t4 := time.Now()
		pick += t1.Sub(t0)
		sel += t2.Sub(t1)
		ins += t3.Sub(t2)
		complete += t4.Sub(t3)
		picks++
	}
	end := time.Now()
	tr.add("algo.ready_pick", root, 0, loopStart, end, pick, picks)
	tr.add("sched.select.HLFET", root, 0, loopStart, end, sel, picks)
	tr.add("sched.insert", root, 0, loopStart, end, ins, picks)
	tr.add("algo.ready_complete", root, 0, loopStart, end, complete, picks)
	var s *sched.Schedule
	tr.timed("sched.finalize", root, 0, func() { s = pl.Finalize("HLFET") })
	return s, scanned
}

// traceKernel runs tracedHEFT and tracedHLFET once each on the kernel
// instance, checks them against the registry schedules by digest, and
// reports the per-layer kernel metrics plus the tracing overhead over the
// registry calls.
func traceKernel(in *inputs, tr *tracer, tal *tally, out metrics) {
	var plain, traced time.Duration
	var scanned int64
	for _, name := range []string{"HEFT", "HLFET"} {
		a, err := dagsched.AlgorithmByName(name)
		if err != nil {
			panic(err)
		}
		runtime.GC()
		d, _, want, err := timeSchedule(a, in.big)
		if !tal.check("kernel registry", err) {
			continue
		}
		plain += d.wall
		runtime.GC()
		start := time.Now()
		var got *sched.Schedule
		if name == "HEFT" {
			got = tracedHEFT(in.big, tr)
		} else {
			got, scanned = tracedHLFET(in.big, tr)
		}
		traced += time.Since(start)
		err = nil
		if testfix.ScheduleDigest(got) != testfix.ScheduleDigest(want) {
			err = wrong(fmt.Errorf("traced %s diverges from the registry schedule", name))
		}
		tal.check("kernel traced", err)
	}
	busy := func(name string) float64 { d, _ := tr.busy(name); return ms(d) }
	out.set("sched.rank_ms.HEFT", busy("sched.rank.HEFT"), "ms")
	out.set("sched.rank_ms.HLFET", busy("sched.rank.HLFET"), "ms")
	out.set("algo.order_ms", busy("algo.order"), "ms")
	out.set("sched.select_ms.HEFT", busy("sched.select.HEFT"), "ms")
	out.set("sched.select_ms.HLFET", busy("sched.select.HLFET"), "ms")
	out.set("sched.insert_ms", busy("sched.insert"), "ms")
	out.set("sched.finalize_ms", busy("sched.finalize"), "ms")
	out.set("algo.ready_pick_ms", busy("algo.ready_pick"), "ms")
	out.set("algo.ready_complete_ms", busy("algo.ready_complete"), "ms")
	out.set("algo.ready_scan_entries", float64(scanned), "count")
	out.set("trace.overhead_pct.kernel", 100*(ratio(float64(traced), float64(plain))-1), "%")
}
