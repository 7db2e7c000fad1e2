package listsched

import (
	"context"
	"fmt"
	"math"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// DLS is the Dynamic Level Scheduling algorithm of Sih and Lee (TPDS
// 1993). At every step it schedules the ready (task, processor) pair with
// the highest dynamic level
//
//	DL(i,p) = SL(i) − EST(i,p) + Δ(i,p),   Δ(i,p) = w̄(i) − w(i,p),
//
// where SL is the static level (mean computation costs, no communication)
// and EST uses the non-insertion policy of the original paper. The Δ term
// is the generalized-heterogeneity adjustment from the original paper; on
// homogeneous systems it vanishes.
type DLS struct{}

// Name implements algo.Algorithm.
func (DLS) Name() string { return "DLS" }

// Schedule implements algo.Algorithm.
func (d DLS) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return d.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler: every step scans all
// ready (task, processor) pairs, so the step loop polls the context.
func (DLS) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	sl := sched.StaticLevel(in)
	pl := sched.NewPlan(in)
	rl := algo.NewReadyList(in.G)
	check := algo.NewCheckpoint(ctx, 64)
	for !rl.Empty() {
		if err := check.Check(); err != nil {
			return nil, fmt.Errorf("DLS: %w", err)
		}
		bestDL := math.Inf(-1)
		var bestTask dag.TaskID = -1
		bestProc, bestStart := 0, 0.0
		for _, t := range rl.Ready() {
			for p := 0; p < in.P(); p++ {
				start, _ := pl.EFTOn(t, p, false)
				dl := sl[t] - start + (in.MeanCost(t) - in.Cost(t, p))
				// Strictly-greater keeps the smallest (task, proc) pair on
				// ties: ready ids ascend and processors ascend.
				if dl > bestDL {
					bestDL, bestTask, bestProc, bestStart = dl, t, p, start
				}
			}
		}
		pl.Place(bestTask, bestProc, bestStart)
		rl.Complete(bestTask)
	}
	return pl.Finalize("DLS"), nil
}
