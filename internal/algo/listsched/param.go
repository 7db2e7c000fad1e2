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

// This file factors the classic list schedulers into their orthogonal
// components, following the decomposition of the parameterized-scheduler
// literature (arXiv:2403.07112): a list scheduler is a priority metric ×
// a consumption order × a processor-selection rule × an insertion policy
// × a duplication policy. Param composes one scheduler per point of that
// grid; the four canonical baselines are exact grid points (HEFTParam,
// CPOPParam, HLFETParam, ETFParam reproduce HEFT, CPOP, HLFET and ETF
// bit-identically — proven against the goldens by param_test.go), so the
// adversarial harness and the E23 ablation can attack components rather
// than whole algorithms.

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
	// DisplayName overrides the canonical Name() (e.g. "HEFT*" for the
	// equivalence tests).
	DisplayName string
}

// HEFTParam is the grid point reproducing HEFT bit-identically.
func HEFTParam() Param {
	return Param{Priority: PrioUpward, Order: OrderStatic, Select: SelectEFT, Insertion: true}
}

// CPOPParam is the grid point reproducing CPOP bit-identically.
func CPOPParam() Param {
	return Param{Priority: PrioUpDown, Order: OrderReady, Select: SelectCPPin, Insertion: true}
}

// HLFETParam is the grid point reproducing HLFET bit-identically.
func HLFETParam() Param {
	return Param{Priority: PrioStaticLevel, Order: OrderReady, Select: SelectEST}
}

// ETFParam is the grid point reproducing ETF bit-identically.
func ETFParam() Param {
	return Param{Priority: PrioStaticLevel, Order: OrderPair, Select: SelectEST}
}

var prioNames = map[Priority]string{PrioUpward: "u", PrioStaticLevel: "sl", PrioUpDown: "ud"}
var orderNames = map[Order]string{OrderStatic: "static", OrderReady: "ready", OrderPair: "pair"}
var selNames = map[Select]string{SelectEFT: "eft", SelectEST: "est", SelectCPPin: "cppin"}

// String returns the canonical grid-point name, e.g.
// "LS/u/static/eft/ins/nodup".
func (pm Param) String() string {
	ins, dup := "noins", "nodup"
	if pm.Insertion {
		ins = "ins"
	}
	if pm.Duplication {
		dup = "dup"
	}
	return fmt.Sprintf("LS/%s/%s/%s/%s/%s",
		prioNames[pm.Priority], orderNames[pm.Order], selNames[pm.Select], ins, dup)
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
	ok := false
	for k, v := range prioNames {
		if v == parts[1] {
			pm.Priority, ok = k, true
		}
	}
	if !ok {
		return Param{}, fmt.Errorf("listsched: unknown priority %q (u|sl|ud)", parts[1])
	}
	ok = false
	for k, v := range orderNames {
		if v == parts[2] {
			pm.Order, ok = k, true
		}
	}
	if !ok {
		return Param{}, fmt.Errorf("listsched: unknown order %q (static|ready|pair)", parts[2])
	}
	ok = false
	for k, v := range selNames {
		if v == parts[3] {
			pm.Select, ok = k, true
		}
	}
	if !ok {
		return Param{}, fmt.Errorf("listsched: unknown selection %q (eft|est|cppin)", parts[3])
	}
	switch parts[4] {
	case "ins":
		pm.Insertion = true
	case "noins":
	default:
		return Param{}, fmt.Errorf("listsched: unknown insertion flag %q (ins|noins)", parts[4])
	}
	switch parts[5] {
	case "dup":
		pm.Duplication = true
	case "nodup":
	default:
		return Param{}, fmt.Errorf("listsched: unknown duplication flag %q (dup|nodup)", parts[5])
	}
	return pm, nil
}

// Grid returns the component grid swept by the E23 ablation: the full
// factorial over priority × {static, ready} order × {EFT, EST} selection
// × insertion × duplication, plus the coupled selection rules at their
// meaningful settings — pair order per priority and critical-path
// pinning at the CPOP priority. Every returned Param is a valid
// scheduler; the four canonical baselines are among them.
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
		CPOPParam(),
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

// ScheduleContext implements algo.CtxScheduler. Each grid point follows
// exactly the code path of the baseline it generalizes, so grid points
// coinciding with HEFT/CPOP/HLFET/ETF are bit-identical to them.
func (pm Param) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	prio := pm.priorities(in)
	pl := sched.NewPlan(in)
	check := algo.NewCheckpoint(ctx, 64)
	var cp *cpState
	if pm.Select == SelectCPPin {
		cp = newCPState(in)
	}
	var ds *dupState
	if pm.Duplication {
		ds = newDupState(pl)
		defer ds.Close()
	}

	step := func(t dag.TaskID) {
		pm.place(pl, ds, cp, t)
	}

	switch pm.Order {
	case OrderStatic:
		for _, t := range staticOrder(in.G, prio) {
			if err := check.Check(); err != nil {
				return nil, fmt.Errorf("%s: %w", pm.Name(), err)
			}
			step(t)
		}
	case OrderReady:
		q := algo.NewReadyQueue(in.G, prio, nil)
		for !q.Empty() {
			if err := check.Check(); err != nil {
				return nil, fmt.Errorf("%s: %w", pm.Name(), err)
			}
			step(q.Pop())
		}
	case OrderPair:
		rl := algo.NewReadyList(in.G)
		for !rl.Empty() {
			if err := check.Check(); err != nil {
				return nil, fmt.Errorf("%s: %w", pm.Name(), err)
			}
			bestStart := math.Inf(1)
			var bestTask dag.TaskID = -1
			bestProc := 0
			for _, t := range rl.Ready() {
				for p := 0; p < in.P(); p++ {
					start, _ := pl.EFTOn(t, p, pm.Insertion)
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
		return nil, fmt.Errorf("listsched: unknown order %d", pm.Order)
	}
	return pl.Finalize(pm.Name()), nil
}

// staticOrder fixes the full scheduling order up front: greedily emit
// the highest-priority task whose predecessors were all emitted, ties
// toward the earlier topological position. For priorities that are
// monotone along edges (upward rank, static level) this is exactly
// algo.OrderDescPrecedence — the HEFT order, bit for bit (the
// equivalence tests pin it) — while staying precedence-valid for
// non-monotone metrics like rank_u + rank_d, which a global sort is not.
func staticOrder(g *dag.Graph, prio []float64) []dag.TaskID {
	topo := g.TopoOrder()
	pos := make([]int32, len(topo))
	for i, v := range topo {
		pos[v] = int32(i)
	}
	q := algo.NewReadyQueue(g, prio, pos)
	order := make([]dag.TaskID, 0, len(topo))
	for !q.Empty() {
		order = append(order, q.Pop())
	}
	return order
}

// StaticOrder exposes the static consumption order for callers that
// replay Param's placement loop outside ScheduleContext — the streaming
// engine's seal-time re-plan must consume tasks in exactly this order to
// stay bit-identical to the static scheduler.
func StaticOrder(g *dag.Graph, prio []float64) []dag.TaskID {
	return staticOrder(g, prio)
}

// CPPin exposes the critical-path pinning state of the CPOP selection
// rule — the on-path mask and the pinned processor — computed exactly as
// ScheduleContext computes it, for the same external replay callers.
func CPPin(in *sched.Instance) (onCP []bool, proc int) {
	st := newCPState(in)
	return st.onCP, st.proc
}

// PriorityVector exposes the configured priority metric for external
// replay callers (see StaticOrder).
func (pm Param) PriorityVector(in *sched.Instance) []float64 {
	return pm.priorities(in)
}

// priorities computes the configured priority vector.
func (pm Param) priorities(in *sched.Instance) []float64 {
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

// place chooses a processor for t under the configured selection rule
// and places it (with duplication trials when enabled).
func (pm Param) place(pl *sched.Plan, ds *dupState, cp *cpState, t dag.TaskID) {
	if cp != nil && cp.onCP[t] {
		// Critical-path task: pinned to the CP processor.
		if ds != nil {
			ds.placeOn(pl, t, cp.proc)
			return
		}
		s, _ := pl.EFTOn(t, cp.proc, pm.Insertion)
		pl.Place(t, cp.proc, s)
		return
	}
	if ds != nil {
		ds.placeBest(pl, t, pm.Select == SelectEST)
		return
	}
	switch pm.Select {
	case SelectEST:
		bestP, bestS := -1, 0.0
		for p := 0; p < pl.Instance().P(); p++ {
			s, _ := pl.EFTOn(t, p, pm.Insertion)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
			}
		}
		pl.Place(t, bestP, bestS)
	default: // SelectEFT, and SelectCPPin off the critical path
		p, s, _ := pl.BestEFT(t, pm.Insertion)
		pl.Place(t, p, s)
	}
}

// cpState carries the CPOP critical-path pinning state, computed exactly
// as CPOP computes it.
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
