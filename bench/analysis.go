package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/lint"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
	wl "repro/internal/workload"
)

// exploreMaxStates is the search bound of the timed explorations. The
// screened inputs stay far below it, so a truncated search is a failure.
const exploreMaxStates = 400_000

func reachable(sys *topology.System, maxStates, workers int) explore.Analysis {
	e := protocol.New(sys, protocol.Classic, selection.Options{})
	return explore.Reachable(e, explore.Options{Mode: explore.SingletonsPlusAll, MaxStates: maxStates, Workers: workers})
}

// exploreInput is one screened system and the analysis every later
// exploration of it must reproduce.
type exploreInput struct {
	sys  *topology.System
	want explore.Analysis
}

// exploreInputs draws systems of the 3-cluster MED-rich family until
// enough of them have a reachable state space inside the size window. The
// family's state spaces are heavy-tailed — a few hundred to a few thousand
// states for most seeds, past the search bound for about one in forty — so
// unscreened seeds would make both the work per run and the truncation
// check a lottery. The window keeps every seed's input the same kind of
// work, and its upper end bounds what rejecting a draw costs the set-up.
func exploreInputs(c *runCtx) ([]exploreInput, error) {
	var in []exploreInput
	for i := int64(0); len(in) < c.sz.exploreSystems; i++ {
		if i > 50*int64(c.sz.exploreSystems) {
			return nil, fmt.Errorf("found only %d systems with %d..%d states among %d draws", len(in), c.sz.exploreMin, c.sz.exploreMax, i)
		}
		sys, err := wl.Generate(c.sz.exploreFamily, c.seed*1000+i)
		if err != nil {
			continue // the generator rejected the draw
		}
		a := reachable(sys, c.sz.exploreMax, 1)
		if a.Truncated || a.States < c.sz.exploreMin {
			continue
		}
		in = append(in, exploreInput{sys: sys, want: a})
	}
	return in, nil
}

func sameAnalysis(x, y explore.Analysis) bool {
	if x.States != y.States || x.Transitions != y.Transitions || x.Truncated != y.Truncated || len(x.FixedPoints) != len(y.FixedPoints) {
		return false
	}
	for i := range x.FixedPoints {
		if !x.FixedPoints[i].Equal(y.FixedPoints[i]) {
			return false
		}
	}
	return true
}

// exploreStateUnit is the input size explore latencies are stated at.
const exploreStateUnit = 100_000

// runExplore is the paper's own question — does it oscillate? — answered
// exhaustively: the reachable configurations of classic I-BGP on a fixed
// set of screened systems, explored over and over. An event is one
// reachable state; a step is one pass over the set, scaled to 100 000
// states so that seeds whose sets differ in size report the same quantity.
func runExplore(c *runCtx) error {
	var in []exploreInput
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if in, err = exploreInputs(c); err != nil {
			return err
		}
		c.setups = append(c.setups, time.Since(t0).Seconds())
	}
	last := make([]explore.Analysis, len(in))
	cpu0 := cpuSeconds()
	for pass := 0; c.timed < c.seconds.Seconds(); pass++ {
		states := 0
		t0 := time.Now()
		for i, x := range in {
			last[i] = reachable(x.sys, exploreMaxStates, 1)
			states += last[i].States
		}
		wall := time.Since(t0).Seconds()
		c.timed += wall
		c.events += states
		c.steps = append(c.steps, wall*exploreStateUnit/float64(states))
		c.rates = append(c.rates, float64(states)/wall)
		for i, x := range in {
			c.check(!last[i].Truncated && sameAnalysis(last[i], x.want),
				"pass %d system %d: analysis differs from the screening pass or was truncated", pass, i)
		}
	}
	c.cpu = cpuSeconds() - cpu0
	c.heapMB = heapLiveMB()
	runtime.KeepAlive(last)
	total := 0
	for _, x := range in {
		total += x.want.States
	}
	c.hashes["states_per_pass"] = fmt.Sprint(total)
	c.note("%d passes over %d systems, %d states a pass; tail is p%.0f", len(c.steps), len(in), total, 100*tailPercentile(len(c.steps)))
	return nil
}

func censusJob() campaign.CensusJob {
	return campaign.CensusJob{Params: censusParams, MaxStates: 1500}
}

// censusBatch classifies one batch of consecutive seeds on one shard and
// checks the paper's claim on it: the modified protocol converges on every
// generated system.
func censusBatch(c *runCtx, start int64, shards int) (*campaign.Aggregate, error) {
	agg, err := campaign.Run(context.Background(), censusJob(),
		campaign.Config{Start: start, Seeds: c.sz.censusBatch, Shards: shards})
	if err != nil {
		return nil, fmt.Errorf("census batch at seed %d: %w", start, err)
	}
	c.check(agg.Completed == c.sz.censusBatch && agg.ModifiedConv == agg.Completed-agg.Errors,
		"census batch at seed %d: %d of %d seeds completed, modified protocol converged on %d of %d systems",
		start, agg.Completed, c.sz.censusBatch, agg.ModifiedConv, agg.Completed-agg.Errors)
	return agg, nil
}

// runCensus is the sampled side of the same question: the census campaign
// classifying one random system per seed under every policy. An event is
// one seed; a step is one batch of seeds. Set-up is one untimed batch,
// which is what lets the generator and engine caches fill.
func runCensus(c *runCtx) error {
	first := c.seed * 1_000_000
	next := first
	batch := func() error {
		_, err := censusBatch(c, next, 1)
		next += int64(c.sz.censusBatch)
		return err
	}
	for i := 0; i < 3*setupRepeats; i++ { // a batch is cheap and varies with its seeds
		t0 := time.Now()
		if err := batch(); err != nil {
			return err
		}
		c.setups = append(c.setups, time.Since(t0).Seconds())
	}
	cpu0 := cpuSeconds()
	for c.timed < c.seconds.Seconds() {
		t0 := time.Now()
		if err := batch(); err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		c.timed += wall
		c.events += c.sz.censusBatch
		c.steps = append(c.steps, wall)
		c.rates = append(c.rates, float64(c.sz.censusBatch)/wall)
	}
	c.cpu = cpuSeconds() - cpu0
	c.heapMB = heapLiveMB()
	c.note("%d batches of %d seeds from seed %d; tail is p%.0f", len(c.steps), c.sz.censusBatch, first, 100*tailPercentile(len(c.steps)))
	return nil
}

// proveInput generates and builds the n-th ISP-scale topology of the run.
func proveInput(c *runCtx, n int) (*topology.System, error) {
	tsp, err := topogen.Generate(c.sz.simFamily, c.seed*1000+int64(n))
	if err != nil {
		return nil, err
	}
	return topology.BuildSpec(tsp)
}

// runProve is the static side: the SAT-backed exact prover on ISP-scale
// topologies. A step, and an event, is one ProveSystem call on a topology
// built for it alone, because that is what a user of ibgplint -prove pays:
// the prover's first pass over a system also fills its shortest-path
// caches, and a second call on the same system would skip that work.
// Building is not timed; set-up is one build plus one untimed proof.
func runProve(c *runCtx) error {
	n := 0
	var sys *topology.System // the last proved system stays live for the heap reading
	prove := func() (wall float64, err error) {
		if sys, err = proveInput(c, n); err != nil {
			return 0, err
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		r := lint.ProveSystem("bench", sys)
		wall = time.Since(t0).Seconds()
		c.cpu += cpuSeconds() - cpu0
		c.check(r.HasPass("prove-stable") && r.Verdict != lint.VerdictFail,
			"topology %d: verdict %v, prove-stable ran: %v", n, r.Verdict, r.HasPass("prove-stable"))
		n++
		return wall, nil
	}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := prove(); err != nil {
			return err
		}
		c.setups = append(c.setups, time.Since(t0).Seconds())
	}
	c.cpu = 0
	for c.timed < c.seconds.Seconds() {
		wall, err := prove()
		if err != nil {
			return err
		}
		c.timed += wall
		c.events++
		c.steps = append(c.steps, wall)
		c.rates = append(c.rates, 1/wall)
	}
	c.heapMB = heapLiveMB()
	runtime.KeepAlive(sys)
	c.note("%d proofs, each on its own %d-router topology; tail is p%.0f", len(c.steps), c.sz.simFamily.N(), 100*tailPercentile(len(c.steps)))
	return nil
}
