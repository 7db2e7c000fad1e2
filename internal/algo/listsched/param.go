// Package listsched implements the classic list-scheduling baselines of
// the static-scheduling literature: HEFT, CPOP and DLS for heterogeneous
// systems, and MCP, ETF, HLFET and ISH, which originate in the homogeneous
// literature but are implemented here against the general heterogeneous
// cost model (on a homogeneous system they reduce to their original
// definitions).
package listsched

import (
	"context"
	"fmt"
	"math"
	"strings"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// A list scheduler is a priority metric × a consumption order × a
// processor-selection rule × an insertion policy × a duplication policy,
// following the decomposition of the parameterized-scheduler literature
// (arXiv:2403.07112). Param composes one scheduler per point of that
// grid, and HEFT, CPOP, HLFET and ETF are named grid points: every one of
// them runs Param's placement loop (PlaceRest), so the adversarial
// harness and the E23 ablation attack components rather than whole
// algorithms, and the streaming engine re-plans with the very loop the
// static scheduler runs.

// Priority selects the task-priority metric.
type Priority int

const (
	// PrioUpward is the upward rank rank_u of HEFT.
	PrioUpward Priority = iota
	// PrioStaticLevel is the communication-free static level of HLFET/ETF.
	PrioStaticLevel
	// PrioUpDown is rank_u + rank_d, the CPOP priority.
	PrioUpDown
)

// Order selects how tasks are consumed.
type Order int

const (
	// OrderStatic fixes the full order up front: tasks sorted by
	// decreasing priority with precedence-safe tie-breaks (HEFT).
	OrderStatic Order = iota
	// OrderReady repeatedly takes the highest-priority ready task
	// (CPOP, HLFET); ties break toward the lower task id.
	OrderReady
	// OrderPair jointly picks the (ready task, processor) pair with the
	// earliest start time, breaking start ties by the higher priority
	// (ETF). The Select component is ignored: pair order *is* the
	// selection rule.
	OrderPair
)

// Select selects the processor-selection rule.
type Select int

const (
	// SelectEFT places on the processor minimizing the earliest finish
	// time (HEFT, CPOP off the critical path).
	SelectEFT Select = iota
	// SelectEST places on the processor minimizing the earliest start
	// time (HLFET).
	SelectEST
	// SelectCPPin pins every critical-path task to the single processor
	// minimizing the critical path's total execution cost and uses
	// min-EFT elsewhere (CPOP).
	SelectCPPin
)

// Param is one point of the component grid, itself an algo.Algorithm.
// The zero value is the HEFT setting minus insertion; use the named
// constructors for the canonical baselines.
type Param struct {
	Priority  Priority
	Order     Order
	Select    Select
	Insertion bool
	// Duplication adds greedy critical-parent duplication to processor
	// selection: every candidate processor is evaluated in a speculative
	// transaction with algo.TryDuplication and the winner's duplicates
	// are committed. None of the four baselines uses it.
	Duplication bool
	// DisplayName overrides the canonical Name(): the named constructors
	// set "HEFT", "CPOP", "HLFET" or "ETF".
	DisplayName string
}

// HEFT is the Heterogeneous Earliest Finish Time algorithm of Topcuoglu,
// Hariri and Wu (TPDS 2002): tasks ordered by decreasing upward rank,
// each placed on the processor minimizing its insertion-based earliest
// finish time.
func HEFT() Param {
	return Param{Priority: PrioUpward, Order: OrderStatic, Select: SelectEFT, Insertion: true, DisplayName: "HEFT"}
}

// CPOP is the Critical-Path-On-a-Processor algorithm of Topcuoglu et
// al.: task priority is rank_u + rank_d; every critical-path task is
// pinned to the single processor that minimizes the critical path's
// total execution cost, all other tasks use insertion-based best EFT;
// tasks are consumed from a ready queue in priority order.
func CPOP() Param {
	return Param{Priority: PrioUpDown, Order: OrderReady, Select: SelectCPPin, Insertion: true, DisplayName: "CPOP"}
}

// HLFET is Highest Level First with Estimated Times (Adam, Chandy,
// Dickson 1974), the archetypal list scheduler: ready tasks are consumed
// in decreasing static level and placed on the processor giving the
// earliest start time, without insertion.
func HLFET() Param {
	return Param{Priority: PrioStaticLevel, Order: OrderReady, Select: SelectEST, DisplayName: "HLFET"}
}

// ETF is the Earliest Time First algorithm of Hwang, Chow, Anger and Lee
// (SIAM J. Comput. 1989): at each step, among all ready tasks and all
// processors, schedule the pair with the smallest earliest start time,
// breaking ties by the higher static level. Non-insertion, per the
// original definition.
func ETF() Param {
	return Param{Priority: PrioStaticLevel, Order: OrderPair, Select: SelectEST, DisplayName: "ETF"}
}

var prioNames = map[Priority]string{PrioUpward: "u", PrioStaticLevel: "sl", PrioUpDown: "ud"}
var orderNames = map[Order]string{OrderStatic: "static", OrderReady: "ready", OrderPair: "pair"}
var selNames = map[Select]string{SelectEFT: "eft", SelectEST: "est", SelectCPPin: "cppin"}
var insNames = map[bool]string{true: "ins", false: "noins"}
var dupNames = map[bool]string{true: "dup", false: "nodup"}

// String returns the canonical grid-point name, e.g.
// "LS/u/static/eft/ins/nodup".
func (pm Param) String() string {
	return fmt.Sprintf("LS/%s/%s/%s/%s/%s", prioNames[pm.Priority], orderNames[pm.Order],
		selNames[pm.Select], insNames[pm.Insertion], dupNames[pm.Duplication])
}

// Name implements algo.Algorithm.
func (pm Param) Name() string {
	if pm.DisplayName != "" {
		return pm.DisplayName
	}
	return pm.String()
}

// ParseParam parses a canonical grid-point name produced by String:
// "LS/<u|sl|ud>/<static|ready|pair>/<eft|est|cppin>/<ins|noins>/<dup|nodup>".
func ParseParam(name string) (Param, error) {
	parts := strings.Split(name, "/")
	if len(parts) != 6 || parts[0] != "LS" {
		return Param{}, fmt.Errorf("listsched: bad param name %q (want LS/prio/order/select/ins/dup)", name)
	}
	var pm Param
	var err error
	if pm.Priority, err = component(prioNames, parts[1], "priority", "u|sl|ud"); err != nil {
		return Param{}, err
	}
	if pm.Order, err = component(orderNames, parts[2], "order", "static|ready|pair"); err != nil {
		return Param{}, err
	}
	if pm.Select, err = component(selNames, parts[3], "selection", "eft|est|cppin"); err != nil {
		return Param{}, err
	}
	if pm.Insertion, err = component(insNames, parts[4], "insertion flag", "ins|noins"); err != nil {
		return Param{}, err
	}
	if pm.Duplication, err = component(dupNames, parts[5], "duplication flag", "dup|nodup"); err != nil {
		return Param{}, err
	}
	return pm, nil
}

// component returns the setting named s.
func component[K comparable](names map[K]string, s, what, want string) (K, error) {
	for k, v := range names {
		if v == s {
			return k, nil
		}
	}
	var zero K
	return zero, fmt.Errorf("listsched: unknown %s %q (%s)", what, s, want)
}

// Grid returns the component grid swept by the E23 ablation: the full
// factorial over priority × {static, ready} order × {EFT, EST} selection
// × insertion × duplication, plus the coupled selection rules at their
// meaningful settings — pair order per priority and critical-path
// pinning at the CPOP priority. Every returned Param is a valid
// scheduler; the settings of the four canonical baselines are among
// them (without their display names).
func Grid() []Param {
	var out []Param
	for _, pr := range []Priority{PrioUpward, PrioStaticLevel, PrioUpDown} {
		for _, ord := range []Order{OrderStatic, OrderReady} {
			for _, sel := range []Select{SelectEFT, SelectEST} {
				for _, ins := range []bool{true, false} {
					for _, dup := range []bool{false, true} {
						out = append(out, Param{Priority: pr, Order: ord, Select: sel, Insertion: ins, Duplication: dup})
					}
				}
			}
		}
		out = append(out, Param{Priority: pr, Order: OrderPair, Select: SelectEST})
	}
	out = append(out,
		Param{Priority: PrioUpDown, Order: OrderReady, Select: SelectCPPin, Insertion: true},
		Param{Priority: PrioUpDown, Order: OrderReady, Select: SelectCPPin, Insertion: true, Duplication: true},
	)
	return out
}

// maxParamDups bounds duplicates per placement, matching package dup.
const maxParamDups = 64

// Schedule implements algo.Algorithm.
func (pm Param) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return pm.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler: PlaceRest on an empty
// plan at clock zero.
func (pm Param) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	pl := sched.NewPlan(in)
	if err := pm.PlaceRest(ctx, pl, pm.PriorityVector(in), nil, 0); err != nil {
		return nil, err
	}
	return pl.Finalize(pm.Name()), nil
}

// PlaceRest places every task pl does not hold yet under the grid
// point's order and selection rules, with each task's data-ready time
// floored at clock so no placement starts before it. Held tasks keep
// their placements and are consumed as if just placed; their
// predecessors must be held too, as in any frozen prefix. prio is the
// priority vector: PriorityVector's, or an exact incremental repair of
// it. A non-nil order replaces the Order component: it must list exactly
// the unheld tasks, each after its unheld predecessors. The streaming
// engine seals by running PlaceRest on a plan seeded with its frozen
// prefix, so at a zero clock the sealed stream is this scheduler
// (DESIGN.md invariant 13). Duplicating points place at clock zero only.
func (pm Param) PlaceRest(ctx context.Context, pl *sched.Plan, prio []float64, order []dag.TaskID, clock float64) error {
	in := pl.Instance()
	var cp *cpState
	if pm.Select == SelectCPPin {
		cp = newCPState(in)
	}
	var ds *dupState
	if pm.Duplication {
		if clock != 0 {
			return fmt.Errorf("%s: duplicates cannot be placed past a clock", pm.Name())
		}
		ds = newDupState(pl)
		defer ds.Close()
	}
	check := algo.NewCheckpoint(ctx, 64)
	step := func(t dag.TaskID) error {
		if err := check.Check(); err != nil {
			return fmt.Errorf("%s: %w", pm.Name(), err)
		}
		pm.place(pl, ds, cp, t, clock)
		return nil
	}

	if order == nil && pm.Order == OrderStatic {
		order = staticOrder(in.G, prio)
	}
	switch {
	case order != nil:
		for _, t := range order {
			if pl.Scheduled(t) {
				continue
			}
			if err := step(t); err != nil {
				return err
			}
		}
	case pm.Order == OrderReady:
		q := algo.NewReadyQueue(in.G, prio, nil)
		for !q.Empty() {
			if t := q.Pop(); !pl.Scheduled(t) {
				if err := step(t); err != nil {
					return err
				}
			}
		}
	case pm.Order == OrderPair:
		// Held tasks never enter the pair competition; their predecessors
		// are held too, so retiring them in topological order is exact.
		rl := algo.NewReadyList(in.G)
		for _, t := range in.G.TopoOrder() {
			if pl.Scheduled(t) {
				rl.Complete(t)
			}
		}
		for !rl.Empty() {
			if err := check.Check(); err != nil {
				return fmt.Errorf("%s: %w", pm.Name(), err)
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
			if ds != nil {
				ds.placeOn(pl, bestTask, bestProc)
			} else {
				pl.Place(bestTask, bestProc, bestStart)
			}
			rl.Complete(bestTask)
		}
	default:
		return fmt.Errorf("listsched: unknown order %d", pm.Order)
	}
	return nil
}

// staticOrder fixes the full scheduling order up front: greedily emit
// the highest-priority task whose predecessors were all emitted, ties
// toward the earlier topological position. For priorities that are
// monotone along edges (upward rank, static level) this is exactly
// algo.OrderDescPrecedence — the HEFT order, bit for bit — while staying
// precedence-valid for non-monotone metrics like rank_u + rank_d, which
// a global sort is not.
func staticOrder(g *dag.Graph, prio []float64) []dag.TaskID {
	topo := g.TopoOrder()
	pos := make([]int32, len(topo))
	for i, v := range topo {
		pos[v] = int32(i)
	}
	return algo.PrecedenceOrder(g, prio, pos, nil)
}

// PriorityVector computes the configured priority metric, for callers of
// PlaceRest.
func (pm Param) PriorityVector(in *sched.Instance) []float64 {
	switch pm.Priority {
	case PrioStaticLevel:
		return sched.StaticLevel(in)
	case PrioUpDown:
		up := sched.RankUpward(in)
		down := sched.RankDownward(in)
		prio := make([]float64, in.N())
		for i := range prio {
			prio[i] = up[i] + down[i]
		}
		return prio
	default:
		return sched.RankUpward(in)
	}
}

// place chooses a processor for t under the configured selection rule,
// with readiness floored at clock, and places it (with duplication
// trials when enabled).
func (pm Param) place(pl *sched.Plan, ds *dupState, cp *cpState, t dag.TaskID, clock float64) {
	if cp != nil && cp.onCP[t] {
		// Critical-path task: pinned to the CP processor.
		if ds != nil {
			ds.placeOn(pl, t, cp.proc)
			return
		}
		s, _ := sched.EFTFloored(pl, t, cp.proc, clock, pm.Insertion)
		pl.Place(t, cp.proc, s)
		return
	}
	if ds != nil {
		ds.placeBest(pl, t, pm.Select == SelectEST)
		return
	}
	switch {
	case pm.Select == SelectEST:
		bestP, bestS := -1, 0.0
		for p := 0; p < pl.Instance().P(); p++ {
			s, _ := sched.EFTFloored(pl, t, p, clock, pm.Insertion)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
			}
		}
		pl.Place(t, bestP, bestS)
	case clock == 0: // SelectEFT, and SelectCPPin off the critical path
		p, s, _ := pl.BestEFT(t, pm.Insertion)
		pl.Place(t, p, s)
	default: // the same, floored: BestEFT has no floor
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

// cpState carries the CPOP critical-path pinning state.
type cpState struct {
	onCP []bool
	proc int
}

func newCPState(in *sched.Instance) *cpState {
	cpPath, _ := sched.CriticalPathMean(in)
	st := &cpState{onCP: make([]bool, in.N())}
	for _, v := range cpPath {
		st.onCP[v] = true
	}
	bestCost := math.Inf(1)
	for p := 0; p < in.P(); p++ {
		var sum float64
		for _, v := range cpPath {
			sum += in.Cost(v, p)
		}
		if sum < bestCost {
			st.proc, bestCost = p, sum
		}
	}
	return st
}

// dupState evaluates per-processor duplication trials on speculative
// transactions, mirroring the dup-package driver: one reusable Txn per
// processor, trials run on a bounded worker group, winner committed.
type dupState struct {
	group   *algo.TrialGroup
	txs     []*sched.Txn
	results []algo.DupResult
}

func newDupState(pl *sched.Plan) *dupState {
	in := pl.Instance()
	return &dupState{
		group:   algo.NewTrialGroup(in.P(), in.N()),
		txs:     make([]*sched.Txn, in.P()),
		results: make([]algo.DupResult, in.P()),
	}
}

func (ds *dupState) Close() { ds.group.Close() }

func (ds *dupState) trial(pl *sched.Plan, t dag.TaskID, p int) {
	tx := ds.txs[p]
	if tx == nil {
		tx = pl.Begin()
		ds.txs[p] = tx
	} else {
		tx.Reset()
	}
	ds.results[p] = algo.TryDuplication(tx, t, p, maxParamDups)
}

// placeBest runs a duplication trial on every processor and commits the
// winner: the minimum finish (or start, under EST selection), ties to
// the lower processor id.
func (ds *dupState) placeBest(pl *sched.Plan, t dag.TaskID, byStart bool) {
	in := pl.Instance()
	ds.group.Run(in.P(), func(p int) { ds.trial(pl, t, p) })
	best := math.Inf(1)
	bestProc := -1
	for p := 0; p < in.P(); p++ {
		v := ds.results[p].Finish
		if byStart {
			v = ds.results[p].Start
		}
		if v < best {
			best, bestProc = v, p
		}
	}
	ds.txs[bestProc].Commit()
	pl.Place(t, bestProc, ds.results[bestProc].Start)
}

// placeOn runs a single duplication trial on the given processor and
// commits it.
func (ds *dupState) placeOn(pl *sched.Plan, t dag.TaskID, p int) {
	ds.trial(pl, t, p)
	ds.txs[p].Commit()
	pl.Place(t, p, ds.results[p].Start)
}
