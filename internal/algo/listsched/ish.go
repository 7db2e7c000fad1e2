package listsched

import (
	"context"
	"fmt"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// ISH is the Insertion Scheduling Heuristic of Kruatrachue and Lewis
// (1987): HLFET extended with hole filling. Whenever placing a task leaves
// an idle hole in front of it on its processor, ISH packs other ready
// tasks into the hole, highest static level first, as long as they fit
// without delaying the placed task.
type ISH struct{}

// Name implements algo.Algorithm.
func (ISH) Name() string { return "ISH" }

// Schedule implements algo.Algorithm.
func (h ISH) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return h.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler.
func (ISH) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	const eps = 1e-9
	pl := sched.NewPlan(in)
	q := algo.NewReadyQueue(in.G, sched.StaticLevel(in), nil)
	check := algo.NewCheckpoint(ctx, 64)
	for !q.Empty() {
		if err := check.Check(); err != nil {
			return nil, fmt.Errorf("ISH: %w", err)
		}
		pick := q.Pop()
		bestP, bestS := -1, 0.0
		holeStart := 0.0
		for p := 0; p < in.P(); p++ {
			s, _ := pl.EFTOn(pick, p, false)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
				holeStart = pl.ProcReady(p)
			}
		}
		pl.Place(pick, bestP, bestS)
		if bestS <= holeStart+eps {
			continue // no hole created
		}
		// Fill the hole [holeStart, bestS) with ready tasks, highest
		// static level first. Each fill may release new ready tasks, which
		// are considered too; the loop ends when nothing fits.
		for {
			var fill dag.TaskID = -1
			fillStart := 0.0
			for _, r := range q.Tasks() {
				s, f := pl.EFTOn(r, bestP, true)
				if f <= bestS+eps && (fill == -1 || q.Before(r, fill)) {
					fill, fillStart = r, s
				}
			}
			if fill == -1 {
				break
			}
			pl.Place(fill, bestP, fillStart)
			q.Complete(fill)
		}
	}
	return pl.Finalize("ISH"), nil
}
