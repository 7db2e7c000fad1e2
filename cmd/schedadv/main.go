// Command schedadv runs adversarial instance searches: it hill-climbs
// (or anneals, or evolves) the instance space to find problem instances
// where one scheduling algorithm beats another by as much as possible,
// and can serialize the found instances as stress fixtures.
//
// Usage:
//
//	schedadv -attacker ILS -victim HEFT                # hill-climb one pair
//	schedadv -attacker HEFT -victim CPOP -method ga    # genetic search
//	schedadv -attacker 'LS/u/static/eft/ins/nodup' \
//	         -victim 'LS/u/static/eft/noins/nodup'     # attack a component
//	schedadv -out testdata/adversarial -name heft_noins # save the fixture
//	schedadv -grid                                     # list the component grid
//	schedadv -list                                     # list algorithm names
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dagsched/internal/adversary"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/suite"
)

func main() {
	var (
		attacker = flag.String("attacker", "", "algorithm the search makes look good (registry name or LS/... component setting)")
		victim   = flag.String("victim", "", "algorithm the search makes look bad (registry name or LS/... component setting)")
		method   = flag.String("method", "hc", "search method: hc, sa or ga")
		iters    = flag.Int("iters", 400, "fitness-evaluation budget")
		pop      = flag.Int("pop", 24, "population size (ga only)")
		seed     = flag.Int64("seed", 1, "search seed; same seed finds the same instance")
		budget   = flag.Duration("budget", 0, "per-schedule time budget (0 = unbounded, fully deterministic)")
		knobs    = flag.Bool("mutate-knobs", false, "also mutate the CCR and beta knobs")

		n        = flag.Int("n", 30, "base instance task count")
		procs    = flag.Int("procs", 4, "base instance processor count")
		ccr      = flag.Float64("ccr", 2, "base instance communication-to-computation ratio")
		beta     = flag.Float64("beta", 1, "base instance heterogeneity in [0,2)")
		shape    = flag.Float64("shape", 0, "base DAG shape (0 = generator default)")
		outdeg   = flag.Int("outdegree", 0, "base DAG max out-degree (0 = generator default)")
		baseSeed = flag.Int64("base-seed", 22, "base instance draw seed")

		outDir = flag.String("out", "", "directory to save the found instance + manifest entry (empty = don't save)")
		name   = flag.String("name", "", "fixture name (default <attacker>_vs_<victim>_s<seed>)")

		grid = flag.Bool("grid", false, "print the parameterized-scheduler component grid and exit")
		list = flag.Bool("list", false, "print the registry algorithm names and exit")
	)
	flag.Parse()

	if *grid {
		for _, pm := range listsched.Grid() {
			fmt.Println(pm.String())
		}
		return
	}
	if *list {
		for _, nm := range suite.Names() {
			fmt.Println(nm)
		}
		return
	}
	if *attacker == "" || *victim == "" {
		fatal(fmt.Errorf("-attacker and -victim are required (see -list and -grid)"))
	}
	att, err := suite.ByName(*attacker)
	if err != nil {
		fatal(err)
	}
	vic, err := suite.ByName(*victim)
	if err != nil {
		fatal(err)
	}
	base := adversary.Spec{
		N: *n, Procs: *procs, CCR: *ccr, Beta: *beta,
		Shape: *shape, OutDegree: *outdeg, BaseSeed: *baseSeed,
	}
	cfg := adversary.Config{
		Attacker: att, Victim: vic, Method: *method,
		Iters: *iters, Pop: *pop, Seed: *seed,
		Budget: *budget, MutateKnobs: *knobs,
	}
	start := time.Now()
	res, err := adversary.Search(context.Background(), base, cfg)
	if err != nil {
		fatal(err)
	}
	digest, err := adversary.Digest(res.Instance)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("attacker   %s\nvictim     %s\nmethod     %s (seed %d, %d evals, %s)\n",
		att.Name(), vic.Name(), cfg.Method, cfg.Seed, res.Evals, time.Since(start).Round(time.Millisecond))
	fmt.Printf("base ratio  %.4f\nfound ratio %.4f  (gain %.3f)\n", res.BaseRatio, res.Ratio, res.Ratio/res.BaseRatio)
	fmt.Printf("makespans   attacker %.3f / victim %.3f\ninstance    n=%d edges=%d digest %s\n",
		res.AttackerMakespan, res.VictimMakespan, res.Instance.G.Len(), res.Instance.G.NumEdges(), digest[:12])

	if *outDir != "" {
		fname := *name
		if fname == "" {
			fname = fmt.Sprintf("%s_vs_%s_s%d", slug(att.Name()), slug(vic.Name()), cfg.Seed)
		}
		fx, err := adversary.SaveFixture(*outDir, fname, base, cfg, res)
		if err != nil {
			fatal(err)
		}
		m, err := adversary.ReadManifest(*outDir)
		if err != nil {
			if !os.IsNotExist(err) {
				fatal(err)
			}
			m = &adversary.Manifest{Version: 1}
		}
		kept := m.Fixtures[:0]
		for _, f := range m.Fixtures {
			if f.Name != fx.Name {
				kept = append(kept, f)
			}
		}
		m.Fixtures = append(kept, *fx)
		if err := m.Write(*outDir); err != nil {
			fatal(err)
		}
		fmt.Printf("saved       %s/%s (manifest updated)\n", *outDir, fx.File)
	}
}

// slug makes an algorithm name filesystem-safe.
func slug(name string) string {
	r := strings.NewReplacer("/", "-", " ", "_")
	return strings.ToLower(r.Replace(name))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schedadv:", err)
	os.Exit(1)
}
