package listsched

import (
	"context"
	"fmt"
	"sort"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// MCP is the Modified Critical Path algorithm of Wu and Gajski (TPDS
// 1990). Each task's priority is its ALAP start time (mean execution and
// communication costs); the task list ascends by ALAP with ties broken by
// the sorted ALAP list of direct successors (a bounded variant of the
// original lexicographic descendant comparison); each task is placed on
// the processor allowing the earliest insertion-based start time.
type MCP struct{}

// Name implements algo.Algorithm.
func (MCP) Name() string { return "MCP" }

// Schedule implements algo.Algorithm.
func (m MCP) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return m.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler.
func (MCP) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	alap := sched.ALAPStart(in)
	// Successor ALAP lists for lexicographic tie-breaking.
	succALAP := make([][]float64, in.N())
	for i := 0; i < in.N(); i++ {
		for _, a := range in.G.Succ(dag.TaskID(i)) {
			succALAP[i] = append(succALAP[i], alap[a.To])
		}
		sort.Float64s(succALAP[i])
	}
	topoPos := make([]int, in.N())
	for k, v := range in.G.TopoOrder() {
		topoPos[v] = k
	}
	order := make([]dag.TaskID, in.N())
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if alap[a] != alap[b] {
			return alap[a] < alap[b]
		}
		la, lb := succALAP[a], succALAP[b]
		for k := 0; k < len(la) && k < len(lb); k++ {
			if la[k] != lb[k] {
				return la[k] < lb[k]
			}
		}
		if len(la) != len(lb) {
			return len(la) < len(lb)
		}
		return topoPos[a] < topoPos[b]
	})
	// ALAP ascends along edges when costs are positive, so the order is
	// precedence-safe; the ready queue guards the zero-cost corner case.
	// Priority is the negated order position (exact for n < 2^53), so the
	// pick is the ready task earliest in the order.
	prio := make([]float64, in.N())
	for k, v := range order {
		prio[v] = -float64(k)
	}
	pl := sched.NewPlan(in)
	q := algo.NewReadyQueue(in.G, prio, nil)
	check := algo.NewCheckpoint(ctx, 64)
	for !q.Empty() {
		if err := check.Check(); err != nil {
			return nil, fmt.Errorf("MCP: %w", err)
		}
		pick := q.Pop()
		// Earliest insertion-based start; finish breaks start ties on
		// heterogeneous systems.
		bestP, bestS, bestF := -1, 0.0, 0.0
		for p := 0; p < in.P(); p++ {
			s, f := pl.EFTOn(pick, p, true)
			if bestP == -1 || s < bestS || (s == bestS && f < bestF) {
				bestP, bestS, bestF = p, s, f
			}
		}
		pl.Place(pick, bestP, bestS)
	}
	return pl.Finalize("MCP"), nil
}
