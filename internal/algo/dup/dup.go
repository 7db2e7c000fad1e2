// Package dup implements the duplication-based scheduling heuristics DSH
// (Kruatrachue & Lewis, 1988) and BTDH (bottom-up top-down duplication,
// the earlier heuristic of this paper's own authors): list schedulers that
// copy critical parents into idle slots so a task can start earlier at the
// cost of redundant computation.
package dup

import (
	"math"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// maxDups bounds duplicate copies accepted per task placement; each
// accepted duplicate makes one more parent local, so the bound is only a
// safety net against pathological graphs.
const maxDups = 64

// DSH is the Duplication Scheduling Heuristic: ready tasks in decreasing
// static level; for every candidate processor the start time is improved
// by greedily duplicating the critical parent into the idle slot in front
// of the task, keeping a duplicate only when the start time strictly
// improves; the processor with the smallest resulting finish time wins.
type DSH struct{}

// Name implements algo.Algorithm.
func (DSH) Name() string { return "DSH" }

// Schedule implements algo.Algorithm.
func (DSH) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return duplicationSchedule(in, "DSH", func(tx *sched.Txn, t dag.TaskID, p int) algo.DupResult {
		return algo.TryDuplication(tx, t, p, maxDups)
	})
}

// BTDH extends DSH: it keeps duplicating remote parents even when an
// individual duplication does not immediately improve the start time, and
// finally keeps the best configuration encountered. This recovers cases
// where only a *combination* of duplicated parents pays off. Duplication
// is limited to direct parents, matching DSH's search space.
type BTDH struct{}

// Name implements algo.Algorithm.
func (BTDH) Name() string { return "BTDH" }

// Schedule implements algo.Algorithm.
func (BTDH) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return duplicationSchedule(in, "BTDH", tryDuplicationBTDH)
}

// duplicationSchedule is the shared driver: static-level ready queue, one
// speculative transaction per candidate processor (evaluated concurrently
// on large instances — transactions make the trials independent), commit
// of the winning transaction.
func duplicationSchedule(in *sched.Instance, name string, try func(*sched.Txn, dag.TaskID, int) algo.DupResult) (*sched.Schedule, error) {
	pl := sched.NewPlan(in)
	q := algo.NewReadyQueue(in.G, sched.StaticLevel(in), nil)
	group := algo.NewTrialGroup(in.P(), in.N())
	defer group.Close()
	txs := make([]*sched.Txn, in.P())
	results := make([]algo.DupResult, in.P())
	for !q.Empty() {
		pick := q.Pop()
		group.Run(in.P(), func(p int) {
			tx := txs[p]
			if tx == nil {
				tx = pl.Begin()
				txs[p] = tx
			} else {
				tx.Reset()
			}
			results[p] = try(tx, pick, p)
		})
		// Winner selection stays sequential in ascending processor order,
		// preserving the tie-break of the clone-based path.
		bestFinish := math.Inf(1)
		bestProc := -1
		for p := 0; p < in.P(); p++ {
			if results[p].Finish < bestFinish {
				bestFinish, bestProc = results[p].Finish, p
			}
		}
		txs[bestProc].Commit()
		pl.Place(pick, bestProc, results[bestProc].Start)
	}
	return pl.Finalize(name), nil
}

// tryDuplicationBTDH duplicates the chain of remote critical parents
// unconditionally, remembering the journal position of the best start
// time seen, and rewinds the transaction to it. Termination: every
// accepted duplicate makes one more parent local on p and local parents
// are never candidates again.
func tryDuplicationBTDH(tx *sched.Txn, t dag.TaskID, p int) algo.DupResult {
	in := tx.Instance()
	dur := in.Cost(t, p)

	start := tx.FindSlot(p, tx.DataReady(t, p), dur, true)
	best := algo.DupResult{Start: start, Finish: start + dur}
	bestMark := tx.Mark()

	dups := 0
	for dups < maxDups {
		parent, arrival := algo.CriticalParent(tx, t, p)
		if parent == -1 {
			break
		}
		// Unlike DSH, duplicate even when the parent is not strictly
		// binding (arrival < start): the chain may pay off later. Skip
		// only when data already arrives at time zero.
		if arrival <= 0 {
			break
		}
		pready := tx.DataReady(parent, p)
		pslot := tx.FindSlot(p, pready, in.Cost(parent, p), true)
		tx.PlaceDup(parent, p, pslot)
		dups++
		start = tx.FindSlot(p, tx.DataReady(t, p), dur, true)
		if start < best.Start {
			best = algo.DupResult{Start: start, Finish: start + dur, Dups: dups}
			bestMark = tx.Mark()
		}
	}
	tx.Undo(bestMark)
	return best
}
