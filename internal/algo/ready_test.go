package algo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dagsched/internal/dag"
)

// randomReadyDAG builds a random DAG whose edges run along a shuffled
// hidden order, so task ids and topological positions disagree. A
// quarter of the tasks weigh zero, which makes levels tie heavily.
func randomReadyDAG(t *testing.T, rng *rand.Rand, n int) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("ready")
	for i := 0; i < n; i++ {
		w := float64(1 + rng.Intn(5))
		if rng.Intn(4) == 0 {
			w = 0
		}
		b.AddTask("", w)
	}
	perm := rng.Perm(n)
	density := rng.Float64() * 0.3
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				b.AddEdge(dag.TaskID(perm[i]), dag.TaskID(perm[j]), 1)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// readyPriorities returns the test's priority vectors: random values
// from a small set, all equal, and the bottom levels (tied wherever
// zero-weight tasks make paths equal).
func readyPriorities(g *dag.Graph, rng *rand.Rand) map[string][]float64 {
	n := g.Len()
	few := make([]float64, n)
	for i := range few {
		few[i] = float64(rng.Intn(3))
	}
	return map[string][]float64{
		"few":   few,
		"equal": make([]float64, n),
		"level": g.BottomLevels(false),
	}
}

// scanPick is the linear pick ReadyQueue replaces: the first
// highest-priority task of the ascending-id ready list.
func scanPick(rl *ReadyList, prio []float64) dag.TaskID {
	var pick dag.TaskID = -1
	for _, r := range rl.Ready() {
		if pick == -1 || prio[r] > prio[pick] {
			pick = r
		}
	}
	return pick
}

// refStaticOrder is the linear-scan greedy order the topological tie key
// replaces: highest priority first, ties to the earlier topological
// position. A non-nil member restricts it to those tasks, counting
// predecessors outside the set as emitted.
func refStaticOrder(g *dag.Graph, prio []float64, pos []int32, member []bool) []dag.TaskID {
	in := func(v dag.TaskID) bool { return member == nil || member[v] }
	pending := make([]int, g.Len())
	var ready []dag.TaskID
	for i := range pending {
		if !in(dag.TaskID(i)) {
			continue
		}
		for _, a := range g.Pred(dag.TaskID(i)) {
			if in(a.To) {
				pending[i]++
			}
		}
		if pending[i] == 0 {
			ready = append(ready, dag.TaskID(i))
		}
	}
	var order []dag.TaskID
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			a, b := ready[i], ready[best]
			if prio[a] > prio[b] || (prio[a] == prio[b] && pos[a] < pos[b]) {
				best = i
			}
		}
		pick := ready[best]
		ready[best] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, pick)
		for _, a := range g.Succ(pick) {
			if !in(a.To) {
				continue
			}
			pending[a.To]--
			if pending[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return order
}

// TestReadyQueueMatchesLinearScan drives a ReadyQueue and a ReadyList in
// lockstep. Most steps pop the queue's top, which must be the linear
// scan's pick; the rest complete a random ready task out of the middle
// of the heap. After every step both hold the same ready set.
func TestReadyQueueMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12001))
	for trial := 0; trial < 60; trial++ {
		g := randomReadyDAG(t, rng, 1+rng.Intn(80))
		for name, prio := range readyPriorities(g, rng) {
			t.Run(fmt.Sprintf("%d/%s", trial, name), func(t *testing.T) {
				q := NewReadyQueue(g, prio, nil)
				rl := NewReadyList(g)
				for step := 0; !rl.Empty(); step++ {
					if q.Empty() {
						t.Fatalf("step %d: queue empty, list holds %v", step, rl.Ready())
					}
					var v dag.TaskID
					if rng.Intn(4) == 0 {
						v = rl.Ready()[rng.Intn(len(rl.Ready()))]
						q.Complete(v)
					} else {
						want := scanPick(rl, prio)
						if v = q.Pop(); v != want {
							t.Fatalf("step %d: pop = %d, scan picks %d", step, v, want)
						}
					}
					rl.Complete(v)
					got := slices.Clone(q.Tasks())
					slices.Sort(got)
					if !slices.Equal(got, rl.Ready()) {
						t.Fatalf("step %d: queue holds %v, list %v", step, got, rl.Ready())
					}
				}
				if !q.Empty() {
					t.Fatalf("queue still holds %v", q.Tasks())
				}
			})
		}
	}
}

// TestReadyQueueTieKeyMatchesStaticOrder pins the topological tie key:
// popping to exhaustion reproduces the linear-scan static order.
func TestReadyQueueTieKeyMatchesStaticOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12002))
	for trial := 0; trial < 60; trial++ {
		g := randomReadyDAG(t, rng, 1+rng.Intn(80))
		pos := make([]int32, g.Len())
		for i, v := range g.TopoOrder() {
			pos[v] = int32(i)
		}
		for name, prio := range readyPriorities(g, rng) {
			want := refStaticOrder(g, prio, pos, nil)
			q := NewReadyQueue(g, prio, pos)
			var got []dag.TaskID
			for !q.Empty() {
				got = append(got, q.Pop())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d/%s: order %v, reference %v", trial, name, got, want)
			}
		}
	}
}

// TestPrecedenceOrderOnSubset pins PrecedenceOrder, on every task and on
// random subsets (the streaming engine's affected sets), against the
// linear-scan greedy order with the same tie keys.
func TestPrecedenceOrderOnSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(12003))
	for trial := 0; trial < 60; trial++ {
		g := randomReadyDAG(t, rng, 1+rng.Intn(80))
		pos := make([]int32, g.Len())
		for i, v := range rng.Perm(g.Len()) {
			pos[v] = int32(i)
		}
		member := make([]bool, g.Len())
		for i := range member {
			member[i] = rng.Intn(3) > 0
		}
		for name, prio := range readyPriorities(g, rng) {
			for _, m := range [][]bool{nil, member} {
				want := refStaticOrder(g, prio, pos, m)
				if got := PrecedenceOrder(g, prio, pos, m); !slices.Equal(got, want) {
					t.Fatalf("trial %d/%s subset=%v: order %v, reference %v", trial, name, m != nil, got, want)
				}
			}
		}
	}
}
