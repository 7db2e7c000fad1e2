package metrics

import (
	"math"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func topcuogluHEFT(t *testing.T) *sched.Schedule {
	t.Helper()
	in := testfix.Topcuoglu()
	s, err := listsched.HEFT().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSLR(t *testing.T) {
	s := topcuogluHEFT(t)
	// Makespan 80; min-cost CP of the Topcuoglu graph: the heaviest path
	// with minimum costs. SLR must be > 1 and < 3 here; pin the exact
	// denominator via the instance.
	want := 80 / s.Instance().CPMin()
	if got := SLR(s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("SLR = %g, want %g", got, want)
	}
	if SLR(s) <= 1 {
		t.Fatalf("SLR = %g, must exceed 1", SLR(s))
	}
}

func TestSpeedupAndEfficiency(t *testing.T) {
	s := topcuogluHEFT(t)
	want := s.Instance().SeqTime() / 80
	if got := Speedup(s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Speedup = %g, want %g", got, want)
	}
	if got := Efficiency(s); math.Abs(got-want/3) > 1e-9 {
		t.Fatalf("Efficiency = %g, want %g", got, want/3)
	}
	if Speedup(s) <= 1 {
		t.Fatalf("Speedup = %g on 3 procs, expected > 1", Speedup(s))
	}
}

func TestEvaluate(t *testing.T) {
	in := testfix.Topcuoglu()
	res, err := Evaluate(listsched.HEFT(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "HEFT" || res.Makespan != 80 || res.Duplicates != 0 {
		t.Fatalf("Result = %+v", res)
	}
	if res.SLR <= 1 || res.Speedup <= 1 || res.Efficiency <= 0 {
		t.Fatalf("derived measures wrong: %+v", res)
	}
	if res.RunTime < 0 {
		t.Fatal("negative runtime")
	}
}

func TestSLRDegenerate(t *testing.T) {
	// Zero-weight single task: CPMin = 0, SLR defined as 1.
	b := dag.NewBuilder("zero")
	b.AddTask("", 0)
	in, err := sched.NewInstance(b.MustBuild(), platform.Homogeneous(1, 0, 1), [][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := listsched.HEFT().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := SLR(s); got != 1 {
		t.Fatalf("degenerate SLR = %g, want 1", got)
	}
	if got := Speedup(s); got != 1 {
		t.Fatalf("degenerate Speedup = %g, want 1", got)
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.StdDev() != 0 || a.CI95() != 0 || a.N() != 0 {
		t.Fatal("zero accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if got := a.Mean(); got != 5 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if got := a.StdDev(); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("StdDev = %g", got)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", a.Min(), a.Max())
	}
	if a.CI95() <= 0 {
		t.Fatal("CI95 must be positive")
	}
}

func TestAccumulatorConstantStream(t *testing.T) {
	var a Accumulator
	for i := 0; i < 100; i++ {
		a.Add(3.3333333333333335)
	}
	if got := a.StdDev(); got != 0 && got > 1e-9 {
		t.Fatalf("StdDev of constant stream = %g", got)
	}
}

func TestWTL(t *testing.T) {
	w := NewWTL("ILS", []string{"HEFT", "CPOP"}, 0)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(w.Record("HEFT", 10, 12)) // win
	check(w.Record("HEFT", 10, 10)) // tie
	check(w.Record("HEFT", 10, 9))  // loss
	check(w.Record("HEFT", 8, 12))  // win
	check(w.Record("CPOP", 10, 15)) // win
	wins, ties, losses, err := w.Counts("HEFT")
	check(err)
	if wins != 2 || ties != 1 || losses != 1 {
		t.Fatalf("HEFT counts = %d/%d/%d", wins, ties, losses)
	}
	winP, tieP, lossP, err := w.Percent("HEFT")
	check(err)
	if winP != 50 || tieP != 25 || lossP != 25 {
		t.Fatalf("HEFT percent = %g/%g/%g", winP, tieP, lossP)
	}
	if err := w.Record("NOPE", 1, 2); err == nil {
		t.Fatal("unknown competitor accepted")
	}
	if _, _, _, err := w.Counts("NOPE"); err == nil {
		t.Fatal("unknown competitor accepted in Counts")
	}
	if got := w.Competitors(); len(got) != 2 || got[0] != "HEFT" {
		t.Fatalf("Competitors = %v", got)
	}
	// No records: percentages are zero, not NaN.
	w2 := NewWTL("X", []string{"Y"}, 0)
	a, b, c, err := w2.Percent("Y")
	check(err)
	if a != 0 || b != 0 || c != 0 {
		t.Fatalf("empty percent = %g/%g/%g", a, b, c)
	}
}
