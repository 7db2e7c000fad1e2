package search

import (
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func TestNames(t *testing.T) {
	if (HillClimb{}).Name() != "HC" || (Anneal{}).Name() != "SA" || (Genetic{}).Name() != "GA" {
		t.Fatal("bad names")
	}
}

func TestValidOnBattery(t *testing.T) {
	algs := []algo.Algorithm{
		HillClimb{Iters: 200},
		Anneal{Iters: 300},
		Genetic{Pop: 10, Gens: 10},
	}
	testfix.Battery(testfix.BatteryConfig{Trials: 12, MaxTasks: 25, Seed: 3001}, func(trial int, in *sched.Instance) {
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if s.Makespan() < in.CPMin()-1e-6 {
				t.Fatalf("trial %d %s: below CP bound", trial, a.Name())
			}
		}
	})
}

// Local search starts from HEFT, so it can never end worse than HEFT.
func TestNeverWorseThanHEFTSeed(t *testing.T) {
	algs := []algo.Algorithm{
		HillClimb{Iters: 300},
		Anneal{Iters: 500},
		Genetic{Pop: 12, Gens: 15},
	}
	testfix.Battery(testfix.BatteryConfig{Trials: 12, MaxTasks: 30, Seed: 3002}, func(trial int, in *sched.Instance) {
		heft, _ := listsched.HEFT().Schedule(in)
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			if s.Makespan() > heft.Makespan()+1e-9 {
				t.Fatalf("trial %d: %s makespan %g worse than its HEFT seed %g",
					trial, a.Name(), s.Makespan(), heft.Makespan())
			}
		}
	})
}

// The searches must actually improve something on a batch: over the
// battery, total HC makespan < total HEFT makespan strictly.
func TestSearchImprovesOnAverage(t *testing.T) {
	var heftSum, hcSum float64
	testfix.Battery(testfix.BatteryConfig{Trials: 15, MaxTasks: 30, Seed: 3003}, func(trial int, in *sched.Instance) {
		heft, _ := listsched.HEFT().Schedule(in)
		hc, err := HillClimb{Iters: 400}.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		heftSum += heft.Makespan()
		hcSum += hc.Makespan()
	})
	if hcSum >= heftSum {
		t.Fatalf("hill climbing never improved: %g vs HEFT %g", hcSum, heftSum)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	in := testfix.Topcuoglu()
	for _, a := range []algo.Algorithm{
		HillClimb{Iters: 200, Seed: 5},
		Anneal{Iters: 200, Seed: 5},
		Genetic{Pop: 8, Gens: 8, Seed: 5},
	} {
		s1, err := a.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := a.Schedule(in)
		if s1.Makespan() != s2.Makespan() {
			t.Fatalf("%s not deterministic", a.Name())
		}
	}
}

func TestDecodeRespectsAssignment(t *testing.T) {
	in := testfix.Topcuoglu()
	seed, err := seedSolution(in)
	if err != nil {
		t.Fatal(err)
	}
	// Pin everything to processor 1.
	for i := range seed.assign {
		seed.assign[i] = 1
	}
	pl := decode(in, seed)
	s := pl.Finalize("pinned")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, a := range s.All() {
		if a.Proc != 1 {
			t.Fatalf("task %d on P%d, want P1", a.Task, a.Proc)
		}
	}
	// Serial on P1: sum of column 1 costs.
	var total float64
	for i := 0; i < in.N(); i++ {
		total += in.W[i][1]
	}
	if s.Makespan() != total {
		t.Fatalf("pinned makespan %g, want %g", s.Makespan(), total)
	}
}
