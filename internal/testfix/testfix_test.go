package testfix_test

import (
	"math"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

const refEps = 1e-6

// TestTopcuogluReferenceValues pins the fixture to the documented
// reference numbers of the HEFT paper (Topcuoglu, Hariri, Wu; TPDS 2002,
// Fig. 1 / Table 1): the upward rank of the entry task and the makespans
// HEFT and CPOP achieve on the example.
func TestTopcuogluReferenceValues(t *testing.T) {
	in := testfix.Topcuoglu()
	if got := in.N(); got != 10 {
		t.Fatalf("fixture has %d tasks, want 10", got)
	}
	if got := in.P(); got != 3 {
		t.Fatalf("fixture has %d processors, want 3", got)
	}

	ranks := sched.RankUpward(in)
	if math.Abs(ranks[0]-108) > refEps {
		t.Errorf("rank_u(n1) = %v, want 108", ranks[0])
	}

	heft, err := listsched.HEFT().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := heft.Validate(); err != nil {
		t.Fatalf("HEFT schedule invalid: %v", err)
	}
	if math.Abs(heft.Makespan()-80) > refEps {
		t.Errorf("HEFT makespan = %v, want 80", heft.Makespan())
	}

	cpop, err := listsched.CPOP().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpop.Validate(); err != nil {
		t.Fatalf("CPOP schedule invalid: %v", err)
	}
	if math.Abs(cpop.Makespan()-86) > refEps {
		t.Errorf("CPOP makespan = %v, want 86", cpop.Makespan())
	}
}

// TestBatteryDeterministic asserts the random battery replays identically
// for a fixed seed — the property the golden-equivalence fixtures rely on.
func TestBatteryDeterministic(t *testing.T) {
	capture := func() []string {
		var out []string
		testfix.Battery(testfix.BatteryConfig{Trials: 5, Seed: 42}, func(trial int, in *sched.Instance) {
			out = append(out, in.String())
		})
		return out
	}
	a, b := capture(), capture()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("battery produced %d and %d instances, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs between replays: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestGoldenInstancesStable asserts the golden battery itself is
// deterministic and its names are unique — otherwise the golden file
// would silently mix records.
func TestGoldenInstancesStable(t *testing.T) {
	one, two := testfix.GoldenInstances(), testfix.GoldenInstances()
	if len(one) != len(two) || len(one) == 0 {
		t.Fatalf("golden battery sizes differ: %d vs %d", len(one), len(two))
	}
	seen := map[string]bool{}
	for i := range one {
		if one[i].Name != two[i].Name {
			t.Fatalf("instance %d name differs between replays", i)
		}
		if seen[one[i].Name] {
			t.Fatalf("duplicate golden instance name %q", one[i].Name)
		}
		seen[one[i].Name] = true
		if one[i].In.String() != two[i].In.String() {
			t.Fatalf("instance %q not deterministic", one[i].Name)
		}
	}
}

// TestGoldenFileParses asserts the committed golden records load and
// cover the full battery.
func TestGoldenFileParses(t *testing.T) {
	gf, err := testfix.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range testfix.GoldenInstances() {
		recs, ok := gf[ni.Name]
		if !ok {
			t.Errorf("golden file missing instance %q", ni.Name)
			continue
		}
		if len(recs) == 0 {
			t.Errorf("golden file has no records for %q", ni.Name)
		}
	}
}
