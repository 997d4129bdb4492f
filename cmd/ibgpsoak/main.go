// Command ibgpsoak drives a seeded churn workload against the operational
// substrates for a wall-clock duration, continuously asserting the rolling
// invariants (windowed Lemma 7.4 re-convergence after each faultless quiet
// window, forwarding loop freedom, bounded RIB growth, quiescence-ledger
// closure), and optionally serves a BMP-style live telemetry feed while it
// runs.
//
// Usage:
//
//	ibgpsoak [-spec default|small|KVLIST] [-topology FILE | -figure N]
//	         [-seed N] [-duration D] [-churn KVLIST]
//	         [-faults SPEC] [-substrate sim|tcp|both] [-mrai N]
//	         [-policy modified|...] [-order paper|rfc] [-med standard|always]
//	         [-codec private|bgp4] [-listen HOST:PORT] [-stats-every D] [-agg]
//
// The topology comes from the ISP generator family (-spec, seeded by
// -seed) unless -topology or -figure names one explicitly. The churn
// workload is DefaultSpec with the run seed, and -churn overrides any of
// its fields ("seed=2,prefixes=8,rate=50,period=500,burst=200,flap=0.3").
// -duration maps onto a deterministic round count, so the final aggregate
// is a pure function of the seed:
// "-substrate both" runs the discrete-event simulator and the loopback
// TCP speakers on the identical stream and fails if their aggregates
// differ.
//
// -codec picks the TCP speakers' wire format (private or real BGP-4). The
// deterministic aggregate is codec-independent, so "-substrate both
// -codec bgp4" doubles as a wire-format differential against the sim.
//
// -listen exposes the live feed: GET /events streams newline-delimited
// JSON router events with periodic aggregate records, /stats and
// /counters serve snapshots. -agg trims stdout to the deterministic
// aggregate alone (wall-clock metrics vary run to run), which is what CI
// byte-compares across runs.
//
// Exit status: 0 clean, 1 invariant violations or substrate divergence,
// 2 usage errors: a bad flag value, or a flag the run does not read
// (-codec under -substrate sim, -stats-every without -listen); -h shows
// each flag's range or names, and when it is read.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"repro/internal/churn"
	"repro/internal/cli"
	"repro/internal/faults"
	"repro/internal/selection"
	"repro/internal/telemetry"
	"repro/internal/topogen"
	"repro/internal/topology"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibgpsoak:", err)
	os.Exit(2)
}

// resolveSystem picks the topology: an explicit file or figure wins,
// otherwise the topogen family named by -spec is generated with the run
// seed.
func resolveSystem(topoPath, figure, spec string, seed int64) (*topology.System, string, error) {
	if topoPath != "" || figure != "" {
		sys, err := cli.LoadSystem(topoPath, figure)
		return sys, "loaded", err
	}
	tspec, err := cli.TopogenFamily(spec)
	if err != nil {
		return nil, "", err
	}
	gen, err := topogen.Generate(tspec, seed)
	if err != nil {
		return nil, "", err
	}
	sys, err := topology.BuildSpec(gen)
	return sys, fmt.Sprintf("topogen %d routers", tspec.N()), err
}

func main() {
	var (
		spec      = flag.String("spec", "default", `topogen family: "default", "small", or key=value overrides (regions, rrs, pops, poprrs, clients, ases, exits, maxmed, corecost, accesscost)`)
		topoPath  = flag.String("topology", "", "topology JSON file (overrides -spec)")
		figure    = flag.String("figure", "", "paper figure name (overrides -spec)")
		seed      = cli.Int64("seed", 1, math.MinInt64, "run seed: topology generation, churn stream and sim delays")
		duration  = cli.Duration("duration", 30*time.Second, time.Nanosecond, "soak length; maps onto a deterministic round count")
		churnSpec = flag.String("churn", "", `full churn workload, e.g. "prefixes=8,rate=50,period=500,burst=200,flap=0.3"`)
		faultSpec = flag.String("faults", "", `fault plan, e.g. "seed=7,drop=0.05,delay=0.2,maxdelay=30,horizon=600"`)
		substrate = cli.Choice("substrate", "both", "substrates to soak", map[string][]func(*topology.System, churn.Config) (*churn.Report, error){
			"sim": {churn.SoakSim}, "tcp": {churn.SoakTCP}, "both": {churn.SoakSim, churn.SoakTCP},
		})
		mrai       = cli.Int64("mrai", 0, 0, "minimum route advertisement interval, sim ticks / tcp ms (0 off)")
		policy     = cli.Choice("policy", "modified", "advertisement policy", cli.Policies)
		order      = cli.Choice("order", "paper", "rule order", cli.Orders)
		med        = cli.Choice("med", "standard", "MED mode", cli.MEDModes)
		codec      = cli.Choice("codec", "private", "wire format", cli.Codecs)
		listen     = flag.String("listen", "", "serve the live telemetry feed on HOST:PORT (empty disables)")
		statsEvery = cli.Duration("stats-every", 2*time.Second, time.Nanosecond, "interval between aggregate records on /events")
		aggOnly    = flag.Bool("agg", false, "print only the deterministic aggregate (for run-to-run comparison)")
	)
	cli.Parse(cli.Modes("substrate", map[string][]string{"tcp": {"codec"}, "both": {"codec"}}),
		cli.Gate("listen", "stats-every"))

	sys, origin, err := resolveSystem(*topoPath, *figure, *spec, *seed)
	if err != nil {
		fatal(err)
	}
	plan, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if !plan.Active() {
		plan = nil
	}
	cspec := churn.DefaultSpec()
	cspec.Seed = *seed
	cspec, err = cli.ParseChurnSpec(*churnSpec, cspec)
	if err != nil {
		fatal(err)
	}

	cfg := churn.Config{
		Spec:      cspec,
		Rounds:    cspec.Rounds(*duration),
		Policy:    *policy,
		Opts:      selection.Options{Order: *order, MED: *med},
		Plan:      plan,
		MRAI:      *mrai,
		DelaySeed: *seed,
		Codec:     *codec,
	}

	if *listen != "" {
		feed := telemetry.NewFeed()
		srv, err := telemetry.Serve(feed, *listen, *statsEvery)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		cfg.EventsBatch = feed.SinkBatch
		cfg.BindCounters = feed.BindCounters
		cfg.Latency = feed.RecordConvergence
		fmt.Fprintf(os.Stderr, "ibgpsoak: telemetry on http://%s (/events, /stats, /counters)\n", srv.Addr())
	}

	fmt.Fprintf(os.Stderr, "ibgpsoak: %s, %d rounds of %s, substrate %s\n",
		origin, cfg.Rounds, cspec, flag.Lookup("substrate").Value)

	var reps []*churn.Report
	ok := true
	for _, soak := range *substrate {
		rep, err := soak(sys, cfg)
		if err != nil {
			fatal(err)
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "ibgpsoak: %s: VIOLATION %s\n", rep.Substrate, v)
		}
		fmt.Fprintf(os.Stderr, "ibgpsoak: %s: %d rounds, %d churn events, %d msgs, %.0f msgs/sec, convergence p50 %d p99 %d, %d violations\n",
			rep.Substrate, rep.Agg.Rounds, rep.Agg.Events, rep.Measured.Counters.Sent,
			rep.Measured.MsgsPerSec, rep.Measured.Convergence.P50, rep.Measured.Convergence.P99,
			len(rep.Violations))
		reps = append(reps, rep)
		ok = ok && rep.OK()
	}

	var out any = reps[0]
	if len(reps) == 2 {
		sim, tcp := reps[0], reps[1]
		match := reflect.DeepEqual(sim.Agg, tcp.Agg)
		ok = ok && match
		if !match {
			fmt.Fprintf(os.Stderr, "ibgpsoak: VIOLATION substrates diverged:\nsim %+v\ntcp %+v\n", sim.Agg, tcp.Agg)
		}
		out = struct {
			Sim            *churn.Report `json:"sim"`
			TCP            *churn.Report `json:"tcp"`
			AggregateMatch bool          `json:"aggregateMatch"`
		}{sim, tcp, match}
	}
	if *aggOnly {
		out = reps[0].Agg
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}
