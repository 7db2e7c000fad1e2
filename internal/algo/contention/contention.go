// Package contention exposes the contention-aware schedulers built on the
// pluggable communication-model layer. The one-port earliest-start logic
// (one send port and one receive port per processor, transfers serialize
// on both; Sinnen and Sousa) that used to live here as a private
// span-list implementation is now platform.OnePort + the reservation
// plumbing in sched.Plan/Txn, shared by every algorithm in the registry:
// CHEFT is simply HEFT run through algo.CommAware, and any other
// scheduler gains the same awareness by the same wrapping. Schedules
// remain valid under the classic contention-free validator (starts only
// move later) but lose far less when replayed on a network that
// serializes transfers (experiments E16/E20).
package contention

import (
	"context"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// CHEFT is contention-aware HEFT: upward-rank order, processor choice by
// the contention-aware insertion EFT, sequential port commitment — HEFT
// delegated through the shared one-port reservation layer.
type CHEFT struct{}

// Name implements algo.Algorithm.
func (CHEFT) Name() string { return "C-HEFT" }

func cheft() algo.CommAware {
	return algo.CommAware{Inner: listsched.HEFT(), Kind: platform.KindOnePort, DisplayName: "C-HEFT"}
}

// Schedule implements algo.Algorithm.
func (CHEFT) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return cheft().Schedule(in)
}

// ScheduleContext implements algo.CtxScheduler: the inner HEFT loop polls
// the context, so contention-aware service requests abort on deadline.
func (CHEFT) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	return cheft().ScheduleContext(ctx, in)
}

// PortSchedule exposes the committed reservations for tests: the total
// reserved send-port time per processor after scheduling in under the
// one-port model with CHEFT.
func PortSchedule(in *sched.Instance) ([]float64, error) {
	model, err := platform.ModelByKind(platform.KindOnePort, in.Sys)
	if err != nil {
		return nil, err
	}
	bound := in.WithComm(model)
	order := algo.OrderDescPrecedence(bound.G, sched.RankUpward(bound))
	pl := sched.NewPlan(bound)
	for _, t := range order {
		p, s, _ := pl.BestEFT(t, true)
		pl.Place(t, p, s)
	}
	out := make([]float64, bound.P())
	if st := pl.CommState(); st != nil {
		// One-port resource layout: send ports are 0..P-1.
		copy(out, st.Busy()[:bound.P()])
	}
	return out, nil
}
