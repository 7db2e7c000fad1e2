package listsched

import (
	"context"
	"fmt"

	"dagsched/internal/algo"
	"dagsched/internal/sched"
)

// HLFET is Highest Level First with Estimated Times (Adam, Chandy, Dickson
// 1974), the archetypal list scheduler: ready tasks are consumed in
// decreasing static level and placed on the processor giving the earliest
// start time, without insertion.
type HLFET struct{}

// Name implements algo.Algorithm.
func (HLFET) Name() string { return "HLFET" }

// Schedule implements algo.Algorithm.
func (h HLFET) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return h.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler.
func (HLFET) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	pl := sched.NewPlan(in)
	q := algo.NewReadyQueue(in.G, sched.StaticLevel(in), nil)
	check := algo.NewCheckpoint(ctx, 64)
	for !q.Empty() {
		if err := check.Check(); err != nil {
			return nil, fmt.Errorf("HLFET: %w", err)
		}
		pick := q.Pop()
		bestP, bestS := -1, 0.0
		for p := 0; p < in.P(); p++ {
			s, _ := pl.EFTOn(pick, p, false)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
			}
		}
		pl.Place(pick, bestP, bestS)
	}
	return pl.Finalize("HLFET"), nil
}
