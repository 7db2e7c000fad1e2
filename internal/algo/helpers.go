package algo

import (
	"sort"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// OrderDescPrecedence returns the tasks sorted by decreasing priority,
// breaking ties by topological position so the order is always a valid
// scheduling order even when priorities tie (e.g. zero-cost tasks).
func OrderDescPrecedence(g *dag.Graph, prio []float64) []dag.TaskID {
	topo := g.TopoOrder()
	pos := make([]int, g.Len())
	for i, v := range topo {
		pos[v] = i
	}
	order := append([]dag.TaskID(nil), topo...)
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		if prio[ta] != prio[tb] {
			return prio[ta] > prio[tb]
		}
		return pos[ta] < pos[tb]
	})
	return order
}

// OrderAscPrecedence is OrderDescPrecedence with ascending priority.
func OrderAscPrecedence(g *dag.Graph, prio []float64) []dag.TaskID {
	neg := make([]float64, len(prio))
	for i, v := range prio {
		neg[i] = -v
	}
	return OrderDescPrecedence(g, neg)
}

// ReadyList tracks which unscheduled tasks have all predecessors placed,
// in ascending id order. It drives the pair-scan heuristics (ETF, DLS),
// which examine every ready task per step anyway; priority-pick
// schedulers use ReadyQueue.
type ReadyList struct {
	g       *dag.Graph
	pending []int // unscheduled predecessor count per task
	ready   []dag.TaskID
}

// NewReadyList returns a ready list seeded with the entry tasks.
func NewReadyList(g *dag.Graph) *ReadyList {
	rl := &ReadyList{g: g, pending: make([]int, g.Len())}
	for i := 0; i < g.Len(); i++ {
		rl.pending[i] = g.InDegree(dag.TaskID(i))
		if rl.pending[i] == 0 {
			rl.ready = append(rl.ready, dag.TaskID(i))
		}
	}
	return rl
}

// Ready returns the current ready tasks in ascending id order. The slice
// must not be modified.
func (rl *ReadyList) Ready() []dag.TaskID { return rl.ready }

// Empty reports whether no task is ready.
func (rl *ReadyList) Empty() bool { return len(rl.ready) == 0 }

// Complete marks task v scheduled, removing it from the ready set and
// releasing any successors whose predecessors are now all scheduled.
func (rl *ReadyList) Complete(v dag.TaskID) {
	for i, r := range rl.ready {
		if r == v {
			rl.ready = append(rl.ready[:i], rl.ready[i+1:]...)
			break
		}
	}
	for _, a := range rl.g.Succ(v) {
		rl.pending[a.To]--
		if rl.pending[a.To] == 0 {
			// Keep ascending order for determinism.
			k := len(rl.ready)
			for k > 0 && rl.ready[k-1] > a.To {
				k--
			}
			rl.ready = append(rl.ready, 0)
			copy(rl.ready[k+1:], rl.ready[k:])
			rl.ready[k] = a.To
		}
	}
}

// CriticalParent returns the predecessor of task t whose data arrives last
// on processor p given the current view, provided that parent has no copy
// on p already (so duplicating it could help), along with its arrival
// time. It returns (-1, 0) when t has no remote critical parent.
func CriticalParent(v sched.View, t dag.TaskID, p int) (dag.TaskID, float64) {
	in := v.Instance()
	best := dag.TaskID(-1)
	bestArrival := 0.0
	for _, pe := range in.G.Pred(t) {
		arrival := arrivalOn(v, pe.To, p, pe.Data)
		local := false
		for _, c := range v.Copies(pe.To) {
			if c.Proc == p {
				local = true
				break
			}
		}
		if !local && arrival > bestArrival {
			best, bestArrival = pe.To, arrival
		}
	}
	return best, bestArrival
}

// arrivalOn returns the earliest time data units from any copy of task m
// reach processor p.
func arrivalOn(v sched.View, m dag.TaskID, p int, data float64) float64 {
	in := v.Instance()
	best := -1.0
	for _, c := range v.Copies(m) {
		t := c.Finish + in.CommCost(c.Proc, p, data)
		if best < 0 || t < best {
			best = t
		}
	}
	return best
}

// DupResult reports the outcome of a duplication trial. The accepted
// duplicates live in the transaction the trial ran in; the caller commits
// the winning transaction and places the task at the reported start.
type DupResult struct {
	// Start and Finish are the candidate task's achievable window on the
	// trial processor after duplication.
	Start, Finish float64
	// Dups counts accepted duplicate copies.
	Dups int
}

// TryDuplication evaluates placing task t on processor p with greedy
// critical-parent duplication (the DSH strategy): while the task's start
// on p is dominated by data from a remote direct parent, try to duplicate
// that parent into an idle slot on p; keep the duplicate only if the start
// time strictly improves. After one parent becomes local another parent
// may become the binding constraint and is tried next; duplication is
// limited to direct parents (no grandparent recursion), bounded by
// maxDups.
//
// The trial runs inside tx: accepted duplicates stay journaled in it,
// rejected ones are rolled back immediately, and the base plan is never
// touched. A trial therefore costs O(changes) — the clone-based reference
// semantics are preserved bit for bit (proven by the differential suite).
func TryDuplication(tx *sched.Txn, t dag.TaskID, p int, maxDups int) DupResult {
	in := tx.Instance()
	dur := in.Cost(t, p)
	start := tx.FindSlot(p, tx.DataReady(t, p), dur, true)
	dups := 0
	for dups < maxDups {
		parent, arrival := CriticalParent(tx, t, p)
		if parent == -1 || arrival <= start-slackEps {
			// No remote parent dominates the start time.
			break
		}
		m := tx.Mark()
		pready := tx.DataReady(parent, p)
		pslot := tx.FindSlot(p, pready, in.Cost(parent, p), true)
		tx.PlaceDup(parent, p, pslot)
		newStart := tx.FindSlot(p, tx.DataReady(t, p), dur, true)
		if newStart >= start-slackEps {
			tx.Undo(m) // duplication did not strictly help
			break
		}
		start = newStart
		dups++
	}
	return DupResult{Start: start, Finish: start + dur, Dups: dups}
}

const slackEps = 1e-9
