package listsched_test

import (
	"context"
	"math/rand"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

// pairings maps each canonical baseline's grid point to its textbook
// reference implementation, which must match it bit for bit.
func pairings() []struct {
	ref   func(*sched.Instance) *sched.Schedule
	param listsched.Param
} {
	return []struct {
		ref   func(*sched.Instance) *sched.Schedule
		param listsched.Param
	}{
		{testfix.RefHEFT, listsched.HEFT()},
		{testfix.RefCPOP, listsched.CPOP()},
		{testfix.RefHLFET, listsched.HLFET()},
		{testfix.RefETF, listsched.ETF()},
	}
}

// TestParamReproducesBaselinesOnGoldens proves the parameterized
// scheduler is an exact factoring: at the HEFT/CPOP/HLFET/ETF component
// settings it produces placement-digest-identical schedules to the
// textbook references on every golden instance — and matches the
// committed goldens themselves.
func TestParamReproducesBaselinesOnGoldens(t *testing.T) {
	golden, err := testfix.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range testfix.GoldenInstances() {
		for _, pair := range pairings() {
			want := pair.ref(ni.In)
			got, err := pair.param.Schedule(ni.In)
			if err != nil {
				t.Fatalf("%s on %s: %v", pair.param.Name(), ni.Name, err)
			}
			wantD, gotD := testfix.ScheduleDigest(want), testfix.ScheduleDigest(got)
			if wantD != gotD {
				t.Errorf("%s on %s: param digest differs from the reference (makespans %v vs %v)",
					pair.param.Name(), ni.Name, got.Makespan(), want.Makespan())
			}
			// And against the committed golden record directly, so the
			// equivalence is anchored to the frozen fixtures, not just to
			// the reference implementation.
			if rec, ok := golden[ni.Name][pair.param.Name()]; ok {
				if gotD != rec.Digest {
					t.Errorf("%s on %s: param digest drifted from committed golden",
						pair.param.Name(), ni.Name)
				}
				if got.Makespan() != rec.Makespan {
					t.Errorf("%s on %s: param makespan %v, golden %v",
						pair.param.Name(), ni.Name, got.Makespan(), rec.Makespan)
				}
			} else {
				t.Errorf("%s on %s: no committed golden", pair.param.Name(), ni.Name)
			}
		}
	}
}

// TestParamReproducesBaselinesOnBattery is the differential property
// test over a fresh random battery: same digests on instances the
// goldens never saw.
func TestParamReproducesBaselinesOnBattery(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 25, MaxTasks: 45, Seed: 22001}, func(trial int, in *sched.Instance) {
		for _, pair := range pairings() {
			want := pair.ref(in)
			got, err := pair.param.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pair.param.Name(), err)
			}
			if testfix.ScheduleDigest(want) != testfix.ScheduleDigest(got) {
				t.Errorf("trial %d: %s digest differs from the reference", trial, pair.param.Name())
			}
		}
	})
}

// TestParamReproducesBaselinesOnTies repeats the differential test on
// instances made of ties: unit tasks, zero communication, and edges that
// run against the id order, so every priority tie must break on the
// topological position (HEFT) or the task id (the ready orders) exactly
// as the references break it.
func TestParamReproducesBaselinesOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(22003))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		b := dag.NewBuilder("ties")
		for i := 0; i < n; i++ {
			b.AddTask("", float64(rng.Intn(2)))
		}
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(5) == 0 {
					b.AddEdge(dag.TaskID(perm[i]), dag.TaskID(perm[j]), 0)
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		in := sched.Consistent(g, platform.Homogeneous(1+rng.Intn(3), 1, 0))
		for _, pair := range pairings() {
			got, err := pair.param.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pair.param.Name(), err)
			}
			if testfix.ScheduleDigest(got) != testfix.ScheduleDigest(pair.ref(in)) {
				t.Errorf("trial %d: %s digest differs from the reference", trial, pair.param.Name())
			}
		}
	}
}

// TestPlaceRestKeepsHeldPrefix re-plans past a clock, the streaming
// engine's seal, on top of the prefix of another scheduler's schedule
// (so the re-plan cannot simply retrace its own placements): every held
// placement stays where it was, every other task is placed once, at or
// after the clock, and the result is valid — for each order (static,
// ready, pair) and selection rule of the baselines.
func TestPlaceRestKeepsHeldPrefix(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 10, MaxTasks: 45, Seed: 22004}, func(trial int, in *sched.Instance) {
		full, err := listsched.MCP{}.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range pairings() {
			pm := pair.param
			clock := full.Makespan() / 2
			var frozen []sched.Assignment
			for _, a := range full.All() {
				if a.Start < clock {
					frozen = append(frozen, a)
				}
			}
			pl := sched.SeedPlan(in, frozen)
			if err := pm.PlaceRest(context.Background(), pl, pm.PriorityVector(in), nil, clock); err != nil {
				t.Fatalf("trial %d %s: %v", trial, pm.Name(), err)
			}
			s := pl.Finalize(pm.Name())
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d %s: invalid re-plan: %v", trial, pm.Name(), err)
			}
			if s.NumCopies() != in.N() {
				t.Fatalf("trial %d %s: %d placements for %d tasks", trial, pm.Name(), s.NumCopies(), in.N())
			}
			held := map[dag.TaskID]sched.Assignment{}
			for _, a := range frozen {
				held[a.Task] = a
			}
			for _, a := range s.All() {
				f, ok := held[a.Task]
				if ok && a != f {
					t.Fatalf("trial %d %s: held task %d moved: %+v -> %+v", trial, pm.Name(), a.Task, f, a)
				}
				if !ok && a.Start < clock {
					t.Fatalf("trial %d %s: task %d re-placed at %g before clock %g", trial, pm.Name(), a.Task, a.Start, clock)
				}
			}
		}
	})
}

// TestGridAllValidate runs every grid point over a small battery and
// requires valid schedules — the grid contains no broken compositions.
func TestGridAllValidate(t *testing.T) {
	grid := listsched.Grid()
	if len(grid) < 40 {
		t.Fatalf("grid has only %d points", len(grid))
	}
	seen := map[string]bool{}
	for _, pm := range grid {
		if seen[pm.String()] {
			t.Fatalf("duplicate grid point %s", pm)
		}
		seen[pm.String()] = true
	}
	for _, want := range []listsched.Param{listsched.HEFT(), listsched.CPOP(), listsched.HLFET(), listsched.ETF()} {
		if !seen[want.String()] {
			t.Errorf("grid is missing baseline point %s", want)
		}
	}
	testfix.Battery(testfix.BatteryConfig{Trials: 4, MaxTasks: 20, Seed: 22002}, func(trial int, in *sched.Instance) {
		for _, pm := range grid {
			s, err := pm.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pm, err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("trial %d %s: invalid schedule: %v", trial, pm, err)
			}
		}
	})
}

// TestParamParseRoundTrip pins the canonical naming: String and
// ParseParam are inverses over the whole grid, and malformed names
// error.
func TestParamParseRoundTrip(t *testing.T) {
	for _, pm := range listsched.Grid() {
		got, err := listsched.ParseParam(pm.String())
		if err != nil {
			t.Fatalf("parse %s: %v", pm, err)
		}
		if got != pm {
			t.Errorf("round trip %s -> %s", pm, got)
		}
	}
	for _, bad := range []string{
		"", "HEFT", "LS/u/static/eft/ins", "LS/x/static/eft/ins/nodup",
		"LS/u/never/eft/ins/nodup", "LS/u/static/xxx/ins/nodup",
		"LS/u/static/eft/maybe/nodup", "LS/u/static/eft/ins/maybe",
	} {
		if _, err := listsched.ParseParam(bad); err == nil {
			t.Errorf("ParseParam(%q) accepted", bad)
		}
	}
}

// TestParamContextCancel proves the grid scheduler aborts promptly on an
// already-canceled context, like every other CtxScheduler.
func TestParamContextCancel(t *testing.T) {
	in := testfix.Topcuoglu()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pm := range []listsched.Param{HEFTlike(), listsched.CPOP()} {
		if _, err := algo.ScheduleContext(ctx, pm, in); err == nil {
			t.Errorf("%s: canceled context not reported", pm)
		}
	}
}

// HEFTlike returns a HEFT-setting Param with a display name, also
// covering the DisplayName override.
func HEFTlike() listsched.Param {
	pm := listsched.HEFT()
	pm.DisplayName = "HEFT*"
	return pm
}
