package stream

import (
	"math"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// Seal-time re-planning replays listsched.Param's placement semantics —
// the same consumption order, the same selection rule, the same tie
// breaks — over everything outside the frozen prefix, with readiness
// floored at the clock. At a zero clock the floor is a no-op
// (sched.EFTFloored is bit-identical to EFTOn) and the frozen prefix is
// empty, so the sealed schedule is bit-identical to the static
// scheduler's: DESIGN.md invariant 13. The equivalence tests pin it.

// sealReplan builds the exact schedule from the frozen prefix.
func sealReplan(pm listsched.Param, in *sched.Instance, prio []float64, frozen []sched.Assignment, clock float64) *sched.Plan {
	pl := sched.SeedPlan(in, frozen)
	isFrozen := make([]bool, in.N())
	for _, a := range frozen {
		isFrozen[a.Task] = true
	}
	var cpOn []bool
	cpProc := 0
	if pm.Select == listsched.SelectCPPin {
		cpOn, cpProc = listsched.CPPin(in)
	}

	switch pm.Order {
	case listsched.OrderStatic:
		for _, t := range listsched.StaticOrder(in.G, prio) {
			if isFrozen[t] {
				continue
			}
			placeMovable(pl, pm, cpOn, cpProc, t, clock)
		}
	case listsched.OrderReady:
		q := algo.NewReadyQueue(in.G, prio, nil)
		for !q.Empty() {
			if pick := q.Pop(); !isFrozen[pick] {
				placeMovable(pl, pm, cpOn, cpProc, pick, clock)
			}
		}
	case listsched.OrderPair:
		rl := algo.NewReadyList(in.G)
		for !rl.Empty() {
			// Retire ready frozen tasks first: they are placed already and
			// must not enter the pair competition.
			retired := true
			for retired {
				retired = false
				for _, r := range rl.Ready() {
					if isFrozen[r] {
						rl.Complete(r)
						retired = true
						break
					}
				}
			}
			if rl.Empty() {
				break
			}
			bestStart := math.Inf(1)
			var bestTask dag.TaskID = -1
			bestProc := 0
			for _, t := range rl.Ready() {
				for p := 0; p < in.P(); p++ {
					start, _ := sched.EFTFloored(pl, t, p, clock, pm.Insertion)
					better := start < bestStart ||
						(start == bestStart && bestTask != -1 && prio[t] > prio[bestTask])
					if better {
						bestStart, bestTask, bestProc = start, t, p
					}
				}
			}
			pl.Place(bestTask, bestProc, bestStart)
			rl.Complete(bestTask)
		}
	}
	return pl
}

// placeMovable places one unfrozen task under Param's selection rule
// with readiness floored at the clock. At clock zero every branch is
// bit-identical to Param.place — in particular min-EFT selection goes
// through Plan.BestEFT itself, whose tree-select path a manual loop
// would not reproduce.
func placeMovable(pl *sched.Plan, pm listsched.Param, cpOn []bool, cpProc int, t dag.TaskID, clock float64) {
	if cpOn != nil && cpOn[t] {
		start, _ := sched.EFTFloored(pl, t, cpProc, clock, pm.Insertion)
		pl.Place(t, cpProc, start)
		return
	}
	switch pm.Select {
	case listsched.SelectEST:
		bestP, bestS := -1, 0.0
		for p := 0; p < pl.Instance().P(); p++ {
			s, _ := sched.EFTFloored(pl, t, p, clock, pm.Insertion)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
			}
		}
		pl.Place(t, bestP, bestS)
	default: // SelectEFT, and SelectCPPin off the critical path
		if clock == 0 {
			p, s, _ := pl.BestEFT(t, pm.Insertion)
			pl.Place(t, p, s)
			return
		}
		bestP := -1
		bestS, bestF := math.Inf(1), math.Inf(1)
		for p := 0; p < pl.Instance().P(); p++ {
			s, f := sched.EFTFloored(pl, t, p, clock, pm.Insertion)
			if bestP == -1 || f < bestF {
				bestP, bestS, bestF = p, s, f
			}
		}
		pl.Place(t, bestP, bestS)
	}
}
