package sim

import (
	"math"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func TestContentionNeverShortensMakespan(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 20, Seed: 4001}, func(trial int, in *sched.Instance) {
		s, err := listsched.HEFT().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		free, err := Run(s, Config{})
		if err != nil {
			t.Fatal(err)
		}
		contended, err := Run(s, Config{Contention: true})
		if err != nil {
			t.Fatal(err)
		}
		if contended.Makespan < free.Makespan-1e-6 {
			t.Fatalf("trial %d: contention shortened the makespan: %g < %g",
				trial, contended.Makespan, free.Makespan)
		}
	})
}

func TestContentionSerializesBroadcast(t *testing.T) {
	// One root broadcasting to 3 children on 3 other processors: in the
	// contention-free model all transfers overlap (arrival = 1 + 10); in
	// the one-port model they serialize on the root's send port
	// (arrivals 11, 21, 31).
	b := dag.NewBuilder("bcast")
	root := b.AddTask("root", 1)
	kids := make([]dag.TaskID, 3)
	for i := range kids {
		kids[i] = b.AddTask("", 1)
		b.AddEdge(root, kids[i], 10)
	}
	g := b.MustBuild()
	// Pin each child to its own processor via the cost matrix.
	w := [][]float64{
		{1, 1000, 1000, 1000},
		{1000, 1, 1000, 1000},
		{1000, 1000, 1, 1000},
		{1000, 1000, 1000, 1},
	}
	in, err := sched.NewInstance(g, platform.Homogeneous(4, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := listsched.HEFT().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	contended, err := Run(s, Config{Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(free.Makespan-12) > 1e-9 {
		t.Fatalf("contention-free makespan = %g, want 12", free.Makespan)
	}
	if math.Abs(contended.Makespan-32) > 1e-9 {
		t.Fatalf("contended makespan = %g, want 32 (serialized broadcast)", contended.Makespan)
	}
	if contended.Transfers != 3 {
		t.Fatalf("Transfers = %d, want 3", contended.Transfers)
	}
	if math.Abs(contended.SendTime[0]-30) > 1e-9 {
		t.Fatalf("SendTime[0] = %g, want 30", contended.SendTime[0])
	}
}

func TestContentionNoEffectOnLocalSchedules(t *testing.T) {
	// A chain kept on one processor has no transfers: contention changes
	// nothing.
	b := dag.NewBuilder("chain")
	var prev dag.TaskID = -1
	for i := 0; i < 5; i++ {
		id := b.AddTask("", 2)
		if prev >= 0 {
			b.AddEdge(prev, id, 50)
		}
		prev = id
	}
	in := sched.Consistent(b.MustBuild(), platform.Homogeneous(3, 0, 1))
	s, _ := listsched.HEFT().Schedule(in)
	contended, err := Run(s, Config{Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	if contended.Transfers != 0 {
		t.Fatalf("Transfers = %d, want 0", contended.Transfers)
	}
	if contended.Makespan != s.Makespan() {
		t.Fatalf("makespan changed without transfers: %g vs %g", contended.Makespan, s.Makespan())
	}
}

func TestContentionWithNoiseComposes(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT().Schedule(in)
	rep, err := Run(s, Config{Contention: true, Noise: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 || rep.Stretch < 0.7 {
		t.Fatalf("implausible contended noisy replay: %+v", rep)
	}
	// Deterministic per seed.
	rep2, _ := Run(s, Config{Contention: true, Noise: 0.2, Seed: 3})
	if rep.Makespan != rep2.Makespan {
		t.Fatal("not deterministic")
	}
}
