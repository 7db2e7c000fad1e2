package algo_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/search"
	"dagsched/internal/core"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

func TestScheduleContextLiveContext(t *testing.T) {
	in := testfix.Topcuoglu()
	for _, a := range []algo.Algorithm{listsched.HEFT{}, core.New(), listsched.CPOP{}} {
		s, err := algo.ScheduleContext(context.Background(), a, in)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
}

func TestScheduleContextPreCanceled(t *testing.T) {
	in := testfix.Topcuoglu()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Both a CtxScheduler and a plain Algorithm refuse a dead context.
	for _, a := range []algo.Algorithm{
		listsched.HEFT{},
		listsched.HLFET{},
		listsched.ISH{},
		listsched.CPOP{},
		listsched.MCP{}, // no ScheduleContext: checked by the dispatcher
	} {
		if _, err := algo.ScheduleContext(ctx, a, in); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", a.Name(), err)
		}
	}
}

func TestScheduleContextAbortsMidRun(t *testing.T) {
	small := testfix.Topcuoglu()
	// The ready-queue schedulers need tens of milliseconds on this
	// instance even on fast hardware, so the cancel lands mid-run.
	rng := rand.New(rand.NewSource(7))
	g, err := workload.Random(workload.RandomConfig{N: 50000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	large, err := workload.MakeInstance(g, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// mustAbort runs cannot finish before the cancel lands: unbounded
	// searches and the large ready-queue runs. ILS/HEFT may legitimately
	// finish the tiny instance first.
	for _, c := range []struct {
		a         algo.Algorithm
		in        *sched.Instance
		mustAbort bool
	}{
		{core.New(), small, false},
		{listsched.HEFT{}, small, false},
		{search.HillClimb{Iters: 1 << 30}, small, true},
		{search.Anneal{Iters: 1 << 30}, small, true},
		{search.Genetic{Pop: 16, Gens: 1 << 20}, small, true},
		{listsched.HLFET{}, large, true},
		{listsched.ISH{}, large, true},
		{listsched.CPOP{}, large, true},
	} {
		a, in := c.a, c.in
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := algo.ScheduleContext(ctx, a, in)
			done <- err
		}()
		// Give the run a head start, then cancel; an unbounded search
		// without checkpoints would never return.
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v", a.Name(), err)
			}
			if err == nil && c.mustAbort {
				t.Fatalf("%s: completed despite cancellation", a.Name())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: did not abort within 10s of cancellation", a.Name())
		}
	}
}

// pollCountCtx reports cancellation from its limit-th Err call on: a
// deterministic stand-in for a cancel that lands mid-run.
type pollCountCtx struct {
	context.Context
	polls, limit int
}

func (c *pollCountCtx) Err() error {
	c.polls++
	if c.polls >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestReadyQueueSchedulersStopAtCheckpoint pins the pick-loop checkpoints
// of the ready-queue schedulers: the dispatcher polls once, the loop's
// first Check once, and the poll one stride later must abort the run. A
// scheduler polled only before and after its run would complete instead.
func TestReadyQueueSchedulersStopAtCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, err := workload.Random(workload.RandomConfig{N: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 4, CCR: 1, Beta: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, a := range []algo.Algorithm{listsched.HLFET{}, listsched.ISH{}, listsched.CPOP{}} {
		ctx := &pollCountCtx{Context: live, limit: 3}
		if _, err := algo.ScheduleContext(ctx, a, in); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", a.Name(), err)
		}
		if ctx.polls != 3 {
			t.Fatalf("%s: %d polls, want 3", a.Name(), ctx.polls)
		}
	}
}

func TestCheckpointNilDone(t *testing.T) {
	c := algo.NewCheckpoint(context.Background(), 1)
	for i := 0; i < 1000; i++ {
		if err := c.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointFirstCheckPolls is the regression test for the stride
// counter: a context canceled before the loop starts must surface on the
// very first Check, not after stride-1 free iterations.
func TestCheckpointFirstCheckPolls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := algo.NewCheckpoint(ctx, 64)
	if err := c.Check(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Check = %v, want context.Canceled", err)
	}
}

// TestCheckpointStride pins the steady-state cadence: after the first
// poll, a live context is polled exactly once per stride Checks — verified
// by canceling between Checks and counting the delay until detection.
func TestCheckpointStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := algo.NewCheckpoint(ctx, 4)
	if err := c.Check(); err != nil { // first Check polls the live context
		t.Fatalf("live first Check = %v", err)
	}
	cancel()
	// Checks 2 and 3 fall inside the stride window; check 5 (= 1 + stride)
	// is the next poll and must report the cancellation.
	delay := 0
	for c.Check() == nil {
		delay++
		if delay > 4 {
			t.Fatalf("cancellation not seen within one stride")
		}
	}
	if delay != 3 {
		t.Fatalf("cancellation seen after %d Checks, want 3 (stride 4)", delay)
	}
}

var _ algo.CtxScheduler = core.ILS{}
var _ algo.CtxScheduler = listsched.HEFT{}
var _ algo.CtxScheduler = listsched.HLFET{}
var _ algo.CtxScheduler = listsched.ISH{}
var _ algo.CtxScheduler = listsched.CPOP{}
var _ algo.CtxScheduler = search.HillClimb{}
var _ algo.CtxScheduler = search.Anneal{}
var _ algo.CtxScheduler = search.Genetic{}
var _ algo.Algorithm = algo.Func{AlgName: "f", Fn: func(in *sched.Instance) (*sched.Schedule, error) { return nil, nil }}
