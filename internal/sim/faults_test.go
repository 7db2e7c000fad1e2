package sim

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func heftTopcuoglu(t *testing.T) *sched.Schedule {
	t.Helper()
	s, err := listsched.HEFT().Schedule(testfix.Topcuoglu())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{Jitter: 1.5},
		{Jitter: math.NaN()},
		{Crashes: []Crash{{Proc: -1, At: 1}}},
		{Crashes: []Crash{{Proc: 9, At: 1}}},
		{Crashes: []Crash{{Proc: 0, At: -2}}},
		{Crashes: []Crash{{Proc: 0, At: math.Inf(1)}}},
		{Crashes: []Crash{{Proc: 0, At: 5, Until: 3}}},
		{Links: []LinkFault{{From: -2, To: 0, At: 0, Factor: 2}}},
		{Links: []LinkFault{{From: 0, To: 9, At: 0, Factor: 2}}},
		{Links: []LinkFault{{From: 0, To: 1, At: 3, Until: 2, Factor: 2}}},
		{Links: []LinkFault{{From: 0, To: 1, At: 0, Factor: 0.5}}},
		{Links: []LinkFault{{From: 0, To: 1, At: 0, Outage: true, Factor: 2}}},
	}
	for i, fp := range bad {
		fp := fp
		if err := fp.Validate(3); err == nil {
			t.Errorf("plan %d: want error, got nil", i)
		}
	}
	good := FaultPlan{
		Crashes: []Crash{{Proc: 0, At: 5}, {Proc: 1, At: 2, Until: 4}},
		Links:   []LinkFault{{From: -1, To: 2, At: 1, Until: 8, Factor: 3}, {From: 0, To: 1, At: 0, Outage: true}},
		Jitter:  0.2, Seed: 7,
	}
	if err := good.Validate(3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	// procs <= 0 skips range checks but keeps structural ones.
	oob := FaultPlan{Crashes: []Crash{{Proc: 99, At: 1}}}
	if err := oob.Validate(0); err != nil {
		t.Fatalf("range check should be deferred: %v", err)
	}
	if err := oob.Validate(3); !errors.Is(err, ErrProcRange) {
		t.Fatalf("want ErrProcRange, got %v", err)
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(3); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
}

func TestReadFaultPlan(t *testing.T) {
	fp, err := ReadFaultPlan(strings.NewReader(
		`{"crashes":[{"proc":1,"at":3.5}],"links":[{"from":-1,"to":0,"at":1,"until":2,"factor":4}],"jitter":0.1,"seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Crashes) != 1 || fp.Crashes[0].Proc != 1 || fp.Jitter != 0.1 || fp.Seed != 9 {
		t.Fatalf("decoded %+v", fp)
	}
	if _, err := ReadFaultPlan(strings.NewReader(`{"crashs":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ReadFaultPlan(strings.NewReader(`{"crashes":[{"proc":0,"at":-1}]}`)); err == nil {
		t.Fatal("invalid crash accepted")
	}
	if _, err := ReadFaultPlan(strings.NewReader(`{`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

func TestSampleCrashes(t *testing.T) {
	a := SampleCrashes(8, 0.5, 100, 42)
	b := SampleCrashes(8, 0.5, 100, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampling is not deterministic per seed")
	}
	if len(SampleCrashes(8, 0, 100, 1).Crashes) != 0 {
		t.Fatal("rate 0 crashed something")
	}
	for seed := int64(0); seed < 50; seed++ {
		fp := SampleCrashes(4, 1, 100, seed)
		if len(fp.Crashes) >= 4 {
			t.Fatalf("seed %d: no survivor left", seed)
		}
		for _, c := range fp.Crashes {
			if c.Proc < 0 || c.Proc >= 4 || c.At < 0 || c.At >= 100 || c.Until != 0 {
				t.Fatalf("seed %d: implausible crash %+v", seed, c)
			}
		}
	}
}

// TestRunProcRangeTypedError is the regression test for the historical
// panic: a schedule rebuilt from external placements can reference a
// processor the platform does not have, and Run must refuse with a typed
// error instead of indexing the cost matrix out of range.
func TestRunProcRangeTypedError(t *testing.T) {
	in := testfix.Topcuoglu()
	s, err := listsched.HEFT().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	as := s.All()
	as[len(as)-1].Proc = in.P() + 3
	rogue, err := sched.FromAssignments(in, "import", as)
	if err != nil {
		t.Fatalf("FromAssignments should defer the range check: %v", err)
	}
	if _, err := Run(rogue, Config{}); !errors.Is(err, ErrProcRange) {
		t.Fatalf("want ErrProcRange, got %v", err)
	}
	// A fault plan naming an out-of-range processor is the same class.
	good := heftTopcuoglu(t)
	bad := &FaultPlan{Crashes: []Crash{{Proc: 99, At: 1}}}
	if _, err := Run(good, Config{Faults: bad}); !errors.Is(err, ErrProcRange) {
		t.Fatalf("want ErrProcRange for fault plan, got %v", err)
	}
}

func TestEmptyFaultPlanMatchesPlainReplay(t *testing.T) {
	s := heftTopcuoglu(t)
	plain, err := Run(s, Config{Noise: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(s, Config{Noise: 0.2, Seed: 5, Faults: &FaultPlan{}})
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Makespan != plain.Makespan || !reflect.DeepEqual(faulted.Start, plain.Start) {
		t.Fatalf("empty fault plan changed the replay: %g vs %g", faulted.Makespan, plain.Makespan)
	}
	if faulted.Faults == nil || faulted.Faults.Completed != s.Instance().N() || len(faulted.Faults.Stranded) != 0 {
		t.Fatalf("degradation report %+v", faulted.Faults)
	}
	if plain.Faults != nil {
		t.Fatal("plain replay grew a fault report")
	}
}

func TestPermanentCrashStrandsWork(t *testing.T) {
	s := heftTopcuoglu(t)
	in := s.Instance()
	// Find the processor with the most work and kill it early.
	target, most := 0, 0
	for p := 0; p < in.P(); p++ {
		if len(s.OnProc(p)) > most {
			target, most = p, len(s.OnProc(p))
		}
	}
	fp := &FaultPlan{Crashes: []Crash{{Proc: target, At: s.Makespan() * 0.25}}}
	rep, err := Run(s, Config{Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	fr := rep.Faults
	if fr == nil {
		t.Fatal("no fault report")
	}
	if len(fr.Stranded) == 0 {
		t.Fatalf("killing the busiest processor at 25%% stranded nothing: %+v", fr)
	}
	if fr.Completed+len(fr.Stranded) != in.N() {
		t.Fatalf("completed %d + stranded %d != %d tasks", fr.Completed, len(fr.Stranded), in.N())
	}
	if fr.Nominal != s.Makespan() {
		t.Fatalf("nominal %g != %g", fr.Nominal, s.Makespan())
	}
	for _, task := range fr.Stranded {
		if !math.IsInf(rep.Start[task], 1) || !math.IsInf(rep.Finish[task], 1) {
			t.Fatalf("stranded task %d has finite times [%g, %g]", task, rep.Start[task], rep.Finish[task])
		}
	}
	// Deterministic: identical plan, identical report.
	rep2, err := Run(s, Config{Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Faults, rep2.Faults) || rep.Makespan != rep2.Makespan {
		t.Fatal("faulted replay is not deterministic")
	}
}

func TestTransientCrashRestartsWork(t *testing.T) {
	s := heftTopcuoglu(t)
	in := s.Instance()
	ms := s.Makespan()
	// A mid-schedule outage on every processor guarantees something is
	// running when it strikes.
	var cs []Crash
	for p := 0; p < in.P(); p++ {
		cs = append(cs, Crash{Proc: p, At: ms * 0.4, Until: ms * 0.5})
	}
	rep, err := Run(s, Config{Faults: &FaultPlan{Crashes: cs}})
	if err != nil {
		t.Fatal(err)
	}
	fr := rep.Faults
	if len(fr.Stranded) != 0 {
		t.Fatalf("transient outage stranded %v", fr.Stranded)
	}
	if fr.Killed == 0 || fr.Restarts != fr.Killed {
		t.Fatalf("killed %d restarts %d; want equal and positive", fr.Killed, fr.Restarts)
	}
	if rep.Makespan <= ms {
		t.Fatalf("outage did not stretch the makespan: %g <= %g", rep.Makespan, ms)
	}
	if fr.Completed != in.N() {
		t.Fatalf("completed %d of %d", fr.Completed, in.N())
	}
}

func TestLinkSlowdownStretchesArrivals(t *testing.T) {
	s := heftTopcuoglu(t)
	base, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	slow := &FaultPlan{Links: []LinkFault{{From: -1, To: -1, At: 0, Factor: 10}}}
	rep, err := Run(s, Config{Faults: slow})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= base.Makespan {
		t.Fatalf("10x slower links did not stretch the makespan: %g <= %g", rep.Makespan, base.Makespan)
	}
	if len(rep.Faults.Stranded) != 0 {
		t.Fatalf("slowdown stranded %v", rep.Faults.Stranded)
	}
}

func TestLinkOutageWindowDefersTransfers(t *testing.T) {
	s := heftTopcuoglu(t)
	ms := s.Makespan()
	outage := &FaultPlan{Links: []LinkFault{{From: -1, To: -1, At: 0, Until: ms, Outage: true}}}
	rep, err := Run(s, Config{Faults: outage})
	if err != nil {
		t.Fatal(err)
	}
	// Every transfer is deferred past the nominal makespan, so anything
	// needing cross-processor data finishes after it.
	if rep.Makespan <= ms {
		t.Fatalf("full outage window did not delay completion: %g <= %g", rep.Makespan, ms)
	}
}

func TestFaultJitterIndependentOfNoiseSeed(t *testing.T) {
	s := heftTopcuoglu(t)
	fp := &FaultPlan{Jitter: 0.3, Seed: 11}
	a, err := Run(s, Config{Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, Config{Faults: fp, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("fault jitter depends on Config.Seed: %g vs %g", a.Makespan, b.Makespan)
	}
	c, err := Run(s, Config{Faults: &FaultPlan{Jitter: 0.3, Seed: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan {
		t.Fatalf("different jitter seeds agreed exactly: %g", c.Makespan)
	}
}
