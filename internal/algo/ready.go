package algo

import "dagsched/internal/dag"

// ReadyQueue is the ready set of a priority-pick list scheduler, one
// that repeatedly takes the highest-priority ready task: a keyed binary
// heap ordered by priority descending, ties toward the lower tie key —
// the task id unless a key is given. Its top is exactly the task a
// strict-> scan of ReadyList's ascending-id order picks, at O(log w) per
// pick and completion instead of O(w) for ready width w. A position
// index makes Complete of any queued task O(log w) too.
type ReadyQueue struct {
	g       *dag.Graph
	prio    []float64
	tie     []int32
	pending []int32 // unscheduled predecessor count per task
	pos     []int32 // heap index of a queued task, -1 otherwise
	heap    []dag.TaskID
}

// NewReadyQueue returns a queue over prio seeded with the entry tasks.
// A non-nil tie gives each task a distinct tie key replacing its id
// (e.g. its topological position).
func NewReadyQueue(g *dag.Graph, prio []float64, tie []int32) *ReadyQueue {
	return newReadyQueue(g, prio, tie, nil)
}

// newReadyQueue is NewReadyQueue over the tasks of member (every task
// when nil): predecessors outside the set count as scheduled, and tasks
// outside it never enter the queue.
func newReadyQueue(g *dag.Graph, prio []float64, tie []int32, member []bool) *ReadyQueue {
	n := g.Len()
	q := &ReadyQueue{g: g, prio: prio, tie: tie, pending: make([]int32, n), pos: make([]int32, n)}
	for i := 0; i < n; i++ {
		v := dag.TaskID(i)
		q.pos[i] = -1
		switch {
		case member == nil:
			q.pending[i] = int32(g.InDegree(v))
		case !member[i]:
			// One more than its predecessors can release: never enters.
			q.pending[i] = int32(g.InDegree(v)) + 1
			continue
		default:
			for _, a := range g.Pred(v) {
				if member[a.To] {
					q.pending[i]++
				}
			}
		}
		if q.pending[i] == 0 {
			q.push(v)
		}
	}
	return q
}

// PrecedenceOrder returns the tasks of member (every task when member is
// nil) in greedy precedence order: repeatedly the highest-priority task
// whose predecessors in the set were all emitted, ties toward the lower
// tie key (the task id when tie is nil). Predecessors outside the set
// count as emitted. For priorities that decrease along edges, with
// topological positions as tie keys, this is OrderDescPrecedence's
// order; unlike a global sort it stays precedence-safe for any metric.
func PrecedenceOrder(g *dag.Graph, prio []float64, tie []int32, member []bool) []dag.TaskID {
	q := newReadyQueue(g, prio, tie, member)
	var order []dag.TaskID
	if member == nil {
		order = make([]dag.TaskID, 0, g.Len())
	}
	for !q.Empty() {
		order = append(order, q.Pop())
	}
	return order
}

// Empty reports whether no task is ready.
func (q *ReadyQueue) Empty() bool { return len(q.heap) == 0 }

// Tasks returns the ready tasks in heap order (not sorted). The slice
// must not be modified and is invalidated by Pop and Complete.
func (q *ReadyQueue) Tasks() []dag.TaskID { return q.heap }

// Before reports whether a precedes b in the queue's pick order.
func (q *ReadyQueue) Before(a, b dag.TaskID) bool {
	if q.prio[a] != q.prio[b] {
		return q.prio[a] > q.prio[b]
	}
	if q.tie != nil {
		return q.tie[a] < q.tie[b]
	}
	return a < b
}

// Pop completes and returns the highest-priority ready task.
func (q *ReadyQueue) Pop() dag.TaskID {
	v := q.heap[0]
	q.Complete(v)
	return v
}

// Complete marks task v scheduled: it leaves the queue if queued, and
// successors whose predecessors are now all scheduled enter it.
func (q *ReadyQueue) Complete(v dag.TaskID) {
	if i := int(q.pos[v]); i >= 0 {
		q.pos[v] = -1
		last := len(q.heap) - 1
		moved := q.heap[last]
		q.heap = q.heap[:last]
		if i < last {
			q.heap[i] = moved
			if !q.down(i) {
				q.up(i)
			}
		}
	}
	for _, a := range q.g.Succ(v) {
		q.pending[a.To]--
		if q.pending[a.To] == 0 {
			q.push(a.To)
		}
	}
}

func (q *ReadyQueue) push(v dag.TaskID) {
	q.heap = append(q.heap, v)
	q.up(len(q.heap) - 1)
}

// up sifts the entry at i toward the root.
func (q *ReadyQueue) up(i int) {
	h, v := q.heap, q.heap[i]
	for i > 0 {
		par := (i - 1) / 2
		if !q.Before(v, h[par]) {
			break
		}
		h[i] = h[par]
		q.pos[h[i]] = int32(i)
		i = par
	}
	h[i] = v
	q.pos[v] = int32(i)
}

// down sifts the entry at i toward the leaves, reporting whether it moved.
func (q *ReadyQueue) down(i int) bool {
	h, v, start := q.heap, q.heap[i], i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && q.Before(h[c+1], h[c]) {
			c++
		}
		if !q.Before(h[c], v) {
			break
		}
		h[i] = h[c]
		q.pos[h[i]] = int32(i)
		i = c
	}
	h[i] = v
	q.pos[v] = int32(i)
	return i != start
}
