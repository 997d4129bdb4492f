// Command ibgpcensus runs a parallel oscillation census over random
// route-reflection systems: a seed range is sharded across a worker pool,
// every seed's configuration is classified under each advertisement policy
// (exhaustively where the reachable state space fits the budget), and the
// results stream into a deterministic aggregate. The aggregate depends
// only on the job and the seed range — never on -shards, checkpoint
// timing, or kill/resume boundaries — so census numbers are reproducible
// byte for byte.
//
// Usage:
//
//	ibgpcensus [-job census|fig13|fuzz|chaos|lint|scale] [-shards N] [-workers N]
//	           [-seeds N] [-start S] [-params k=v,...] [-max-states N]
//	           [-schedules N] [-plans N] [-churn k=v,...] [-rounds N]
//	           [-mrai N] [-scale-plans N] [-checkpoint FILE] [-resume]
//	           [-json] [-progress DUR] [-timeout DUR]
//
// A bad flag value exits 2, and so does a flag the chosen job does not
// read; -h shows each flag's range or names, and which jobs read it.
//
// -shards parallelises across seeds. -workers parallelises the
// reachable-state search within each seed; only the census, fig13 and
// lint jobs run such a search, so only they read it. Both are
// deterministic: the aggregate is a pure function of the job and the seed
// range. -max-states bounds those jobs' per-variant exhaustive search; a
// census or fig13 seed whose search truncates is decided by sampled
// schedules instead.
//
// Examples:
//
//	ibgpcensus -seeds 500 -json                      # classic census
//	ibgpcensus -job fig13 -start 8000 -seeds 2000 -max-states 0   # Figure 13 hunt: screen by sampling...
//	ibgpcensus -job fig13 -start 8905 -seeds 1 -max-states 3000000   # ...then verify a hit exhaustively
//	ibgpcensus -job chaos -seeds 200                 # fault-injection sweep
//	ibgpcensus -job lint -seeds 500 -max-states 60000   # lint precision/recall
//	ibgpcensus -job scale -seeds 8 -params pops=6,exits=6,prefixes=64   # sharded-core soak
//	ibgpcensus -seeds 10000 -checkpoint c.jsonl      # checkpointed...
//	ibgpcensus -seeds 10000 -checkpoint c.jsonl -resume   # ...and resumed
//
// -params overrides fields of the job's default family, e.g.
// "clusters=4,maxmed=2,exits=8" (census/fuzz),
// "clusters=4,twoclienton=0,dotted=0.5" (fig13), or
// "pops=4,exits=6,maxmed=3" (lint, over the topogen small family).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/churn"
	"repro/internal/cli"
	"repro/internal/topogen"
	"repro/internal/workload"
)

func main() {
	var (
		shards     = cli.Int("shards", 0, 0, "worker count (0: GOMAXPROCS); never changes the results, only the wall-clock")
		seeds      = cli.Int("seeds", 256, 1, "number of consecutive seeds")
		start      = cli.Int64("start", 1, math.MinInt64, "first seed")
		params     = flag.String("params", "", "family overrides, comma-separated key=value")
		maxStates  = cli.Int("max-states", 4000, 0, "per-variant reachable-state budget (0: sampling only)")
		workers    = cli.Int("workers", 1, 0, "goroutines per reachable-state search (0: GOMAXPROCS); deterministic — never changes the aggregate")
		schedules  = cli.Int("schedules", 4, 1, "delay seeds per topology seed")
		plans      = cli.Int("plans", 3, 1, "fault plans per topology seed")
		churnSpec  = flag.String("churn", "", "churn workload overrides, e.g. rate=40,flap=0.3 (seed and prefixes come from the campaign seed and the generated domain)")
		rounds     = cli.Int("rounds", 3, 1, "churn rounds per seed")
		mrai       = cli.Int64("mrai", 0, 0, "per-session MRAI in virtual ticks (0: no pacing)")
		scalePlans = cli.Int("scale-plans", 0, 0, "fault plans per seed for the chaos variant (0: off)")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint path")
		resume     = flag.Bool("resume", false, "resume from -checkpoint, running only missing seeds")
		jsonOut    = flag.Bool("json", false, "write the aggregate as indented JSON on stdout")
		progress   = cli.Duration("progress", 0, 0, "progress report interval on stderr (0: off)")
		timeout    = cli.Duration("timeout", 0, 0, "overall deadline (0: none)")
	)
	// Each job builds itself from the parsed flags; -params is read by the
	// job's own family parser, so it is checked only after the job is known.
	newJob := cli.Choice("job", "census", "job kind", map[string]func() (campaign.Job, error){
		"census": func() (campaign.Job, error) {
			p, err := cli.ParseWorkloadParams(*params, workload.Default(3))
			return campaign.CensusJob{Params: p, MaxStates: *maxStates, Workers: *workers}, err
		},
		"fig13": func() (campaign.Job, error) {
			base := workload.CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}
			spec, err := cli.ParseCrossedSpec(*params, base)
			return campaign.Fig13Job{Spec: spec, MaxStates: *maxStates, Workers: *workers}, err
		},
		"fuzz": func() (campaign.Job, error) {
			p, err := cli.ParseWorkloadParams(*params, workload.Default(3))
			return campaign.FuzzJob{Params: p, Schedules: *schedules}, err
		},
		"chaos": func() (campaign.Job, error) {
			p, err := cli.ParseWorkloadParams(*params, workload.Default(3))
			return campaign.ChaosJob{Params: p, Plans: *plans}, err
		},
		"lint": func() (campaign.Job, error) {
			spec, err := cli.ParseTopogenSpec(*params, topogen.Small())
			return campaign.LintJob{Spec: spec, MaxStates: *maxStates, Workers: *workers}, err
		},
		"scale": func() (campaign.Job, error) {
			spec, err := cli.ParseTopogenSpec(*params, topogen.Small())
			if err != nil {
				return nil, err
			}
			cs, err := cli.ParseChurnSpec(*churnSpec, churn.DefaultSpec())
			return campaign.ScaleJob{
				Spec: spec, Churn: cs, Rounds: *rounds, MRAI: *mrai, Plans: *scalePlans,
			}, err
		},
	})
	// The job-specific flags each job reads; every other flag is read by all.
	cli.Parse(cli.Modes("job", map[string][]string{
		"census": {"max-states", "workers"}, "fig13": {"max-states", "workers"}, "lint": {"max-states", "workers"},
		"fuzz": {"schedules"}, "chaos": {"plans"}, "scale": {"churn", "rounds", "mrai", "scale-plans"},
	}))
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	job, err := (*newJob)()
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := campaign.Config{
		Shards:     *shards,
		Start:      *start,
		Seeds:      *seeds,
		Checkpoint: *checkpoint,
		Resume:     *resume,
	}
	if *progress > 0 {
		cfg.ProgressEvery = *progress
		cfg.Progress = func(p campaign.ProgressReport) {
			fmt.Fprintln(os.Stderr, p)
		}
	}

	agg, err := campaign.Run(ctx, job, cfg)
	if err != nil {
		if agg != nil && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "ibgpcensus: interrupted after %d/%d seeds; resume with -resume -checkpoint %s\n",
				agg.Completed, *seeds, *checkpoint)
		}
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(agg); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(agg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibgpcensus:", err)
	os.Exit(1)
}
