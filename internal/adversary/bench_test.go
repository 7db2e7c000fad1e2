package adversary

import (
	"context"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
)

// BenchmarkPopulationEval guards the throughput of the bounded parallel
// population evaluator — the hot loop of every GA adversary run.
func BenchmarkPopulationEval(b *testing.B) {
	base := Spec{N: 40, Procs: 4, CCR: 1, Beta: 0.5, BaseSeed: 11}
	in, err := base.Decode()
	if err != nil {
		b.Fatal(err)
	}
	base.materialize(in.G.NumEdges())
	cfg := Config{Attacker: listsched.HEFT(), Victim: listsched.CPOP()}
	if err := cfg.defaults(); err != nil {
		b.Fatal(err)
	}
	const popSize = 16
	pop := make([]Spec, popSize)
	for i := range pop {
		pop[i] = base.clone()
		pop[i].BaseSeed = int64(i)
	}
	e := &evaluator{ctx: context.Background(), cfg: &cfg}
	group := algo.NewTrialGroup(popSize, algo.ParallelTrialThreshold)
	defer group.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fits, err := e.evalPop(group, pop)
		if err != nil {
			b.Fatal(err)
		}
		if len(fits) != popSize {
			b.Fatalf("got %d fitnesses", len(fits))
		}
	}
}
