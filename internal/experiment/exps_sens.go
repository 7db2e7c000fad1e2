package experiment

import (
	"fmt"
	"math/rand"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
	"dagsched/internal/sched"
	"dagsched/internal/workload"
)

// E17 — sensitivity of ILS to the duplication budget: sweep MaxDups and
// measure mean SLR and the duplicate count, at moderate and high CCR.
func E17() Experiment {
	return Experiment{ID: "E17", Title: "ILS duplication-budget sensitivity", Run: func(cfg Config) ([]*Table, error) {
		budgets := []int{1, 2, 4, 8, 16}
		if cfg.Quick {
			budgets = []int{1, 8}
		}
		var algs []algo.Algorithm
		for _, b := range budgets {
			algs = append(algs, core.Variant(fmt.Sprintf("dups≤%d", b), core.Options{
				SigmaRank: true, Lookahead: true, Duplication: true, MaxDups: b,
			}))
		}
		reps := cfg.reps(25)
		ccrs := []float64{1, 5}
		if cfg.Quick {
			ccrs = []float64{5}
		}
		t := &Table{ID: "E17", Title: "ILS mean SLR vs duplication budget (n=60, P=8, β=1)",
			Columns: append([]string{"CCR"}, names(algs)...)}
		for i, c := range ccrs {
			accs, err := meanOver(algs, reps, cfg.Seed+int64(100*i)+1701, randGen(randParams{ccr: c}), slr, cfg.Workers)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, fmtRow(fmt.Sprintf("%g", c), accs))
		}
		t.Notes = "A budget of 1–2 duplicates per placement captures nearly the full benefit: the critical parent dominates."
		return []*Table{t}, nil
	}}
}

// E18 — link heterogeneity: SLR as the network's per-link rates spread
// out while their mean stays fixed. Rank computations use mean costs, so
// increasing spread degrades every mean-based heuristic; the question is
// who degrades gracefully.
func E18() Experiment {
	return Experiment{ID: "E18", Title: "Link heterogeneity: SLR vs link spread", Run: func(cfg Config) ([]*Table, error) {
		algs := []algo.Algorithm{
			core.New(),
			listsched.HEFT(),
			listsched.CPOP(),
			listsched.DLS{},
		}
		spreads := []float64{0, 0.5, 1.0, 1.5}
		if cfg.Quick {
			spreads = []float64{0, 1.0}
		}
		reps := cfg.reps(25)
		t := &Table{ID: "E18", Title: "Average SLR vs link-rate spread (n=60, P=8, CCR=1, β=1)",
			Columns: append([]string{"spread"}, names(algs)...)}
		for i, sp := range spreads {
			sp := sp
			gen := func(rng *rand.Rand) (*sched.Instance, error) {
				g, err := workload.Random(workload.RandomConfig{N: 60}, rng)
				if err != nil {
					return nil, err
				}
				return workload.MakeInstance(g, workload.HetConfig{
					Procs: 8, CCR: 1, Beta: 1, LinkSpread: sp,
				}, rng)
			}
			accs, err := meanOver(algs, reps, cfg.Seed+int64(100*i)+1801, gen, slr, cfg.Workers)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, fmtRow(fmt.Sprintf("%g", sp), accs))
		}
		t.Notes = "Per-link time-per-unit drawn uniformly with mean 1; spread 0 reproduces the uniform network of E2."
		return []*Table{t}, nil
	}}
}
