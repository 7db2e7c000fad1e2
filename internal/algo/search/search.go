// Package search implements guided-random-search schedulers — a genetic
// algorithm, simulated annealing and steepest hill climbing — the
// meta-heuristic baselines this literature compares list schedulers
// against. All three share one solution encoding: a task-priority vector
// (decoded precedence-safely through a ready list) plus an explicit
// processor assignment, evaluated by insertion-based placement.
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// solution is one point of the search space.
type solution struct {
	prio   []float64 // decoded by "highest ready priority first"
	assign []int     // processor per task
}

func (s solution) clone() solution {
	return solution{
		prio:   append([]float64(nil), s.prio...),
		assign: append([]int(nil), s.assign...),
	}
}

// decode builds the plan a solution encodes. Any priority vector decodes
// to a valid schedule: precedence is enforced by releasing tasks only
// once every predecessor is placed: the ready queue picks the highest
// priority, lower id on ties, in O(log w) for ready width w.
func decode(in *sched.Instance, s solution) *sched.Plan {
	pl := sched.NewPlan(in)
	q := algo.NewReadyQueue(in.G, s.prio, nil)
	for !q.Empty() {
		pick := q.Pop()
		start, _ := pl.EFTOn(pick, s.assign[pick], true)
		pl.Place(pick, s.assign[pick], start)
	}
	return pl
}

// makespan evaluates a solution.
func makespan(in *sched.Instance, s solution) float64 {
	return decode(in, s).Makespan()
}

// seedSolution derives the starting point from HEFT: upward-rank
// priorities and HEFT's processor assignment.
func seedSolution(in *sched.Instance) (solution, error) {
	heft, err := listsched.HEFT().Schedule(in)
	if err != nil {
		return solution{}, err
	}
	s := solution{
		prio:   sched.RankUpward(in),
		assign: make([]int, in.N()),
	}
	for i := 0; i < in.N(); i++ {
		s.assign[i] = heft.Primary(dag.TaskID(i)).Proc
	}
	return s, nil
}

// mutate applies one random move in place: with probability half a
// processor reassignment, otherwise a priority swap between two tasks.
func mutate(s *solution, rng *rand.Rand, procs int) {
	n := len(s.prio)
	if rng.Intn(2) == 0 && procs > 1 {
		t := rng.Intn(n)
		p := rng.Intn(procs)
		for p == s.assign[t] {
			p = rng.Intn(procs)
		}
		s.assign[t] = p
	} else {
		a, b := rng.Intn(n), rng.Intn(n)
		s.prio[a], s.prio[b] = s.prio[b], s.prio[a]
	}
}

// HillClimb is steepest-descent local search from the HEFT seed: random
// moves are accepted only when they strictly shorten the makespan.
type HillClimb struct {
	// Iters is the number of candidate moves (default 1000).
	Iters int
	// Seed drives the move sequence (schedules are deterministic per seed).
	Seed int64
}

// Name implements algo.Algorithm.
func (HillClimb) Name() string { return "HC" }

// Schedule implements algo.Algorithm.
func (h HillClimb) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return h.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler: each candidate move costs
// a full decode, so the loop polls the context every iteration.
func (h HillClimb) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	iters := h.Iters
	if iters <= 0 {
		iters = 1000
	}
	rng := rand.New(rand.NewSource(h.Seed + 1))
	cur, err := seedSolution(in)
	if err != nil {
		return nil, err
	}
	curMS := makespan(in, cur)
	check := algo.NewCheckpoint(ctx, 1)
	for i := 0; i < iters; i++ {
		if err := check.Check(); err != nil {
			return nil, fmt.Errorf("HC: %w", err)
		}
		cand := cur.clone()
		mutate(&cand, rng, in.P())
		if ms := makespan(in, cand); ms < curMS-1e-12 {
			cur, curMS = cand, ms
		}
	}
	return decode(in, cur).Finalize("HC"), nil
}

// Anneal is simulated annealing over the same neighborhood with a
// geometric cooling schedule.
type Anneal struct {
	// Iters is the number of proposed moves (default 2000).
	Iters int
	// T0 is the initial temperature as a fraction of the seed makespan
	// (default 0.1); Alpha the geometric cooling factor (default such
	// that the final temperature is ~1e-3 of T0).
	T0, Alpha float64
	// Seed drives the stochastic acceptance.
	Seed int64
}

// Name implements algo.Algorithm.
func (Anneal) Name() string { return "SA" }

// Schedule implements algo.Algorithm.
func (a Anneal) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return a.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler; see HillClimb.
func (a Anneal) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	iters := a.Iters
	if iters <= 0 {
		iters = 2000
	}
	rng := rand.New(rand.NewSource(a.Seed + 2))
	cur, err := seedSolution(in)
	if err != nil {
		return nil, err
	}
	curMS := makespan(in, cur)
	best, bestMS := cur.clone(), curMS
	t0 := a.T0
	if t0 <= 0 {
		t0 = 0.1
	}
	temp := t0 * curMS
	alpha := a.Alpha
	if alpha <= 0 || alpha >= 1 {
		alpha = math.Pow(1e-3, 1/float64(iters))
	}
	check := algo.NewCheckpoint(ctx, 1)
	for i := 0; i < iters; i++ {
		if err := check.Check(); err != nil {
			return nil, fmt.Errorf("SA: %w", err)
		}
		cand := cur.clone()
		mutate(&cand, rng, in.P())
		ms := makespan(in, cand)
		if ms < curMS || (temp > 0 && rng.Float64() < math.Exp((curMS-ms)/temp)) {
			cur, curMS = cand, ms
			if ms < bestMS {
				best, bestMS = cand.clone(), ms
			}
		}
		temp *= alpha
	}
	return decode(in, best).Finalize("SA"), nil
}

// Genetic is a steady-state genetic algorithm: tournament selection,
// uniform crossover of assignments and priorities, per-gene mutation,
// elitism of one.
type Genetic struct {
	// Pop is the population size (default 20), Gens the generation count
	// (default 50).
	Pop, Gens int
	// MutRate is the per-offspring mutation probability (default 0.3).
	MutRate float64
	// Seed drives the whole evolution.
	Seed int64
}

// Name implements algo.Algorithm.
func (Genetic) Name() string { return "GA" }

// Schedule implements algo.Algorithm.
func (g Genetic) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return g.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler: the context is polled per
// offspring (each costs a decode), aborting mid-generation.
func (g Genetic) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	pop := g.Pop
	if pop <= 0 {
		pop = 20
	}
	gens := g.Gens
	if gens <= 0 {
		gens = 50
	}
	mutRate := g.MutRate
	if mutRate <= 0 {
		mutRate = 0.3
	}
	rng := rand.New(rand.NewSource(g.Seed + 3))
	seed, err := seedSolution(in)
	if err != nil {
		return nil, err
	}
	// Initial population: the HEFT seed plus mutated copies.
	people := make([]solution, pop)
	fitness := make([]float64, pop)
	people[0] = seed
	for i := 1; i < pop; i++ {
		s := seed.clone()
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutate(&s, rng, in.P())
		}
		people[i] = s
	}
	for i := range people {
		fitness[i] = makespan(in, people[i])
	}
	tournament := func() int {
		a, b := rng.Intn(pop), rng.Intn(pop)
		if fitness[a] <= fitness[b] {
			return a
		}
		return b
	}
	bestIdx := func() int {
		best := 0
		for i := 1; i < pop; i++ {
			if fitness[i] < fitness[best] {
				best = i
			}
		}
		return best
	}
	check := algo.NewCheckpoint(ctx, 1)
	for gen := 0; gen < gens; gen++ {
		next := make([]solution, 0, pop)
		nextFit := make([]float64, 0, pop)
		// Elitism.
		e := bestIdx()
		next = append(next, people[e].clone())
		nextFit = append(nextFit, fitness[e])
		for len(next) < pop {
			if err := check.Check(); err != nil {
				return nil, fmt.Errorf("GA: %w", err)
			}
			ma, pa := people[tournament()], people[tournament()]
			child := ma.clone()
			for i := range child.assign {
				if rng.Intn(2) == 0 {
					child.assign[i] = pa.assign[i]
				}
				if rng.Intn(2) == 0 {
					child.prio[i] = pa.prio[i]
				}
			}
			if rng.Float64() < mutRate {
				mutate(&child, rng, in.P())
			}
			next = append(next, child)
			nextFit = append(nextFit, makespan(in, child))
		}
		people, fitness = next, nextFit
	}
	return decode(in, people[bestIdx()]).Finalize("GA"), nil
}
