package listsched

import (
	"context"
	"fmt"

	"dagsched/internal/algo"
	"dagsched/internal/sched"
)

// CPOP is the Critical-Path-On-a-Processor algorithm of Topcuoglu et al.:
// task priority is rank_u + rank_d; every critical-path task is pinned to
// the single processor that minimizes the critical path's total execution
// cost, all other tasks use insertion-based best EFT; tasks are consumed
// from a ready queue in priority order.
type CPOP struct{}

// Name implements algo.Algorithm.
func (CPOP) Name() string { return "CPOP" }

// Schedule implements algo.Algorithm.
func (c CPOP) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return c.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler.
func (CPOP) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	up := sched.RankUpward(in)
	down := sched.RankDownward(in)
	prio := make([]float64, in.N())
	for i := range prio {
		prio[i] = up[i] + down[i]
	}
	cp := newCPState(in)
	pl := sched.NewPlan(in)
	q := algo.NewReadyQueue(in.G, prio, nil)
	check := algo.NewCheckpoint(ctx, 64)
	for !q.Empty() {
		if err := check.Check(); err != nil {
			return nil, fmt.Errorf("CPOP: %w", err)
		}
		pick := q.Pop()
		if cp.onCP[pick] {
			s, _ := pl.EFTOn(pick, cp.proc, true)
			pl.Place(pick, cp.proc, s)
		} else {
			p, s, _ := pl.BestEFT(pick, true)
			pl.Place(pick, p, s)
		}
	}
	return pl.Finalize("CPOP"), nil
}
