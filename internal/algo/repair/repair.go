// Package repair implements fail-stop schedule repair: given a static
// schedule and a processor that dies at a known time, it rebuilds a valid
// schedule in which every surviving placement is preserved and all lost
// work is rescheduled onto the remaining processors. This is the static
// counterpart of dynamic rescheduling: the repaired schedule can be
// handed back to the same runtime that executed the original.
package repair

import (
	"fmt"
	"math"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// Failure describes a fail-stop event.
type Failure struct {
	// Proc is the processor that stops executing.
	Proc int
	// Time is the instant of the failure. Copies on Proc that finish at
	// or before Time survive; every other copy on Proc is lost. Copies on
	// other processors are never lost (they may still be re-timed only if
	// their inputs came from lost copies — see Repair).
	Time float64
}

// Repair reschedules the schedule around the failure:
//
//   - surviving copies keep their processor and start time when all their
//     inputs still arrive in time, and are re-placed as early as possible
//     otherwise (they can only need to move later, never earlier);
//   - lost copies are dropped; lost primaries are rescheduled on the
//     remaining processors with insertion-based best-EFT in upward-rank
//     order;
//   - nothing new is ever placed on the failed processor: its timeline is
//     blocked from the failure instant.
//
// The result validates under the standard validator and its algorithm
// name is tagged "+repair".
func Repair(s *sched.Schedule, f Failure) (*sched.Schedule, error) {
	in := s.Instance()
	if f.Proc < 0 || f.Proc >= in.P() {
		return nil, fmt.Errorf("repair: processor %d out of range", f.Proc)
	}
	if in.P() < 2 {
		return nil, fmt.Errorf("repair: cannot repair on a single-processor system")
	}
	if f.Time < 0 {
		return nil, fmt.Errorf("repair: negative failure time %g", f.Time)
	}

	survives := func(a sched.Assignment) bool {
		return a.Proc != f.Proc || a.Finish <= f.Time+1e-9
	}

	pl := sched.NewPlan(in)
	pl.BlockProc(f.Proc, f.Time)

	// Re-place in the original global start order so surviving
	// prerequisites exist before their dependents, with lost tasks
	// interleaved by upward rank afterwards. Strategy: process tasks in a
	// precedence-safe order; keep a surviving primary on its processor at
	// the earliest feasible start ≥ its data-ready time (equal to the
	// original start when its inputs are intact); reschedule lost
	// primaries by best EFT. Surviving duplicates are re-added only if
	// they still fit where they were.
	rank := sched.RankUpward(in)
	order := algo.OrderDescPrecedence(in.G, rank)
	for _, t := range order {
		prim := s.Primary(t)
		if survives(prim) {
			// Inputs may have moved later; keep the processor, move the
			// start if forced.
			start := pl.FindSlot(prim.Proc, math.Max(pl.DataReady(t, prim.Proc), prim.Start), in.Cost(t, prim.Proc), true)
			if math.IsInf(start, 1) {
				// The surviving proc is the failed one and the re-timed
				// slot no longer fits before the failure: the copy is
				// effectively lost after all.
				p, st, _ := pl.BestEFT(t, true)
				if math.IsInf(st, 1) {
					return nil, fmt.Errorf("repair: no feasible processor for task %d", t)
				}
				pl.Place(t, p, st)
			} else {
				pl.Place(t, prim.Proc, start)
			}
		} else {
			p, st, _ := pl.BestEFT(t, true)
			if math.IsInf(st, 1) {
				return nil, fmt.Errorf("repair: no feasible processor for task %d", t)
			}
			pl.Place(t, p, st)
		}
		// Surviving duplicates of t are re-added opportunistically: they
		// can only help later consumers. One that no longer fits is
		// dropped; primaries carry correctness.
		for _, c := range s.Copies(t) {
			if c.Dup && survives(c) {
				start := pl.FindSlot(c.Proc, math.Max(pl.DataReady(t, c.Proc), c.Start), in.Cost(t, c.Proc), true)
				if !math.IsInf(start, 1) {
					pl.PlaceDup(t, c.Proc, start)
				}
			}
		}
	}
	return pl.Finalize(s.Algorithm() + "+repair"), nil
}

// Impact summarizes what a failure costs: the repaired makespan versus
// the original, and how many task copies had to move or be recomputed.
type Impact struct {
	Original, Repaired float64
	// Lost counts primary copies destroyed by the failure; Moved counts
	// surviving primaries whose start time changed during repair.
	Lost, Moved int
}

// Assess repairs the schedule and reports the impact.
func Assess(s *sched.Schedule, f Failure) (*sched.Schedule, Impact, error) {
	r, err := Repair(s, f)
	if err != nil {
		return nil, Impact{}, err
	}
	imp := Impact{Original: s.Makespan(), Repaired: r.Makespan()}
	in := s.Instance()
	for i := 0; i < in.N(); i++ {
		before := s.Primary(dag.TaskID(i))
		after := r.Primary(dag.TaskID(i))
		if before.Proc == f.Proc && before.Finish > f.Time+1e-9 {
			imp.Lost++
		} else if before.Proc != after.Proc || math.Abs(before.Start-after.Start) > 1e-9 {
			imp.Moved++
		}
	}
	return r, imp, nil
}
