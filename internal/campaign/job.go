package campaign

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/faults"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Job is the pluggable per-seed unit of work. Implementations must be
// pure functions of the seed: no shared mutable state, no global RNG, no
// wall-clock — that purity is what lets the engine shard a seed range
// across workers and still produce byte-identical aggregates.
type Job interface {
	// Name identifies the job kind in aggregates and checkpoints.
	Name() string
	// Describe renders the job's parameters for the aggregate header.
	Describe() string
	// Run processes one seed. Per-seed soft failures (the generator
	// rejecting a draw) are reported in SeedResult.Err; Run itself should
	// honour ctx and return promptly once it is cancelled (the result of
	// a cancelled seed is discarded, never checkpointed).
	Run(ctx context.Context, seed int64, m *Meter) SeedResult
}

// CensusJob is the flagship workload: generate one random
// route-reflection system per seed and decide, under each advertisement
// policy, whether it oscillates — exhaustively when the reachable state
// space fits the budget, by schedule sampling otherwise (workload.Classify).
type CensusJob struct {
	// Params selects the random family (workload.Generate).
	Params workload.Params
	// MaxStates bounds the per-variant reachable-state search; 0 disables
	// the exhaustive pass and uses sampling verdicts only.
	MaxStates int
	// Workers is the number of goroutines each seed's reachable-state
	// search uses (explore.Options.Workers). Verdicts and aggregates are
	// identical for every value; it composes with campaign sharding, so
	// shards*workers should not exceed the machine. Values below 2 run
	// serially.
	Workers int
}

func (j CensusJob) Name() string { return "census" }

func (j CensusJob) Describe() string {
	return fmt.Sprintf("%+v maxStates=%d", j.Params, j.MaxStates)
}

func (j CensusJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	sys, err := workload.Generate(j.Params, seed)
	return classify(ctx, seed, sys, err, j.MaxStates, j.Workers, m)
}

// Fig13Job reproduces the paper's Figure 13 counterexample search as a
// campaign: sample the crossed family and classify each draw, flagging the
// seeds where the Walton et al. fix fails while the modified protocol
// converges. `ibgpcensus -job fig13 -max-states 0` screens a seed range by
// sampling; rerunning a hit with a large -max-states verifies it
// exhaustively.
type Fig13Job struct {
	// Spec selects the crossed family (workload.SampleCrossed).
	Spec workload.CrossedSpec
	// MaxStates bounds the per-variant reachable-state search, as for
	// CensusJob; 0 keeps sampling verdicts.
	MaxStates int
	// Workers parallelises the searches per seed; verdicts are identical
	// for every value (see CensusJob.Workers).
	Workers int
}

func (j Fig13Job) Name() string { return "fig13" }

func (j Fig13Job) Describe() string {
	return fmt.Sprintf("%+v maxStates=%d", j.Spec, j.MaxStates)
}

func (j Fig13Job) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	sys, err := workload.SampleCrossed(j.Spec, seed)
	return classify(ctx, seed, sys, err, j.MaxStates, j.Workers, m)
}

// classify is the body of the census and Figure 13 jobs: classify one
// generated system and record the verdict, its evidence and its work.
func classify(ctx context.Context, seed int64, sys *topology.System, err error, maxStates, workers int, m *Meter) SeedResult {
	res := SeedResult{Seed: seed}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	v := workload.Classify(ctx, sys, maxStates, workers)
	m.States.Add(v.ExploredStates)
	m.Steps.Add(v.Steps)
	m.Truncations.Add(int64(v.Truncations))
	res.Nodes = sys.N()
	res.ClassicOsc = v.ClassicOscillates
	res.WaltonOsc = v.WaltonOscillates
	res.ModifiedConv = v.ModifiedConverges
	res.MEDInduced = v.MEDInduced
	res.Fig13Like = v.IsFig13Like()
	res.Exhaustive = v.Exhaustive
	res.States = v.States
	res.FixedPoints = v.FixedPoints
	res.Truncated = v.Truncations > 0
	return res
}

// FuzzJob is the message-level workload: run the msgsim discrete-event
// simulator over one random system under several seeded delay models and
// record how often it quiesces and whether timing alone changes the final
// routing outcome (the Figure 3 / Table 1 phenomenon, surveyed at scale).
// It runs classic I-BGP without MRAI pacing, each simulation bounded by
// fuzzMaxEvents with per-message delays drawn from [1, fuzzMaxDelay].
type FuzzJob struct {
	// Params selects the random family (workload.Generate).
	Params workload.Params
	// Schedules is the number of delay seeds per topology seed (default 4).
	Schedules int
}

const (
	fuzzMaxEvents = 20000
	fuzzMaxDelay  = 100
)

func (j FuzzJob) Name() string { return "fuzz" }

func (j FuzzJob) Describe() string {
	return fmt.Sprintf("%+v policy=%v schedules=%d maxEvents=%d",
		j.Params, protocol.Classic, j.Schedules, fuzzMaxEvents)
}

func (j FuzzJob) fill() FuzzJob {
	if j.Schedules <= 0 {
		j.Schedules = 4
	}
	return j
}

// ChaosJob is the fault-injection workload: generate one random system per
// seed, derive several fault schedules from the seed, and check the chaos
// invariants on each — re-convergence to the fault-free configuration,
// loop-freedom, ledger closure. Fault plans come from faults.RandomPlan and
// the checks run on the deterministic msgsim substrate, so the whole record
// is a pure function of the seed and aggregates are byte-identical across
// shard counts. It tests modified I-BGP, whose convergence guarantee the
// re-convergence invariant presupposes, under defaultChaosFaults.
type ChaosJob struct {
	// Params selects the random family (workload.Generate).
	Params workload.Params
	// Plans is the number of fault schedules per topology seed (default 3).
	Plans int
}

func (j ChaosJob) Name() string { return "chaos" }

func (j ChaosJob) Describe() string {
	j = j.fill()
	return fmt.Sprintf("%+v policy=%v plans=%d faults=%+v", j.Params, protocol.Modified, j.Plans, defaultChaosFaults)
}

// defaultChaosFaults is the moderate fault mix of the chaos and scale jobs.
var defaultChaosFaults = faults.RandomConfig{
	Drop: 0.1, Duplicate: 0.05, Reorder: 0.05, Delay: 0.2,
	MaxExtraDelay: 15, Resets: 2, Horizon: 500,
}

func (j ChaosJob) fill() ChaosJob {
	if j.Plans <= 0 {
		j.Plans = 3
	}
	return j
}

// runPlans is the chaos-plan loop of ChaosJob and ScaleJob: derive plans
// defaultChaosFaults schedules for a seed's routers, run each through
// check, and tally the oracle's verdicts into res.
func runPlans(ctx context.Context, seed int64, plans, routers int, m *Meter, res *SeedResult,
	check func(planSeed int64, plan *faults.Plan) (chaos.Report, error)) {
	for i := 0; i < plans && ctx.Err() == nil; i++ {
		// Plan seeds are derived from the topology seed so the record is a
		// function of the seed alone, like FuzzJob's delay seeds.
		planSeed := seed*int64(plans) + int64(i)
		plan, err := faults.RandomPlan(planSeed, routers, defaultChaosFaults)
		var rep chaos.Report
		if err == nil {
			rep, err = check(planSeed, plan)
		}
		if err != nil {
			res.Err = err.Error()
			return
		}
		res.ChaosPlans++
		res.Messages += int(rep.Counters.Sent)
		res.Flaps += int(rep.Counters.Flaps)
		m.Steps.Add(rep.Counters.Sent)
		if rep.Quiesced {
			res.Quiesced++
		}
		if rep.Reconverged() {
			res.Reconverged++
		}
		if rep.LoopFree() {
			res.LoopFree++
		}
		if !rep.LedgerClosed {
			res.LedgerBroken++
		}
	}
}

func (j ChaosJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	j = j.fill()
	res := SeedResult{Seed: seed}
	sys, err := workload.Generate(j.Params, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Nodes = sys.N()
	runPlans(ctx, seed, j.Plans, sys.N(), m, &res, func(planSeed int64, plan *faults.Plan) (chaos.Report, error) {
		return chaos.CheckSim(sys, chaos.Config{Policy: protocol.Modified, Plan: plan, DelaySeed: planSeed + 1})
	})
	return res
}

func (j FuzzJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	j = j.fill()
	res := SeedResult{Seed: seed}
	sys, err := workload.Generate(j.Params, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Nodes = sys.N()
	outcomes := map[string]bool{}
	for i := 0; i < j.Schedules; i++ {
		if ctx.Err() != nil {
			break
		}
		// Delay seeds are derived from the topology seed so the whole
		// record is a function of the seed alone.
		delay := msgsim.MustRandomDelay(seed*int64(j.Schedules)+int64(i), 1, fuzzMaxDelay)
		sim := msgsim.New(sys, protocol.Classic, selection.Options{}, delay)
		sim.InjectAll()
		r := sim.Run(fuzzMaxEvents)
		c := sim.Counters()
		res.Schedules++
		res.Messages += r.Messages
		res.Flaps += int(c.Flaps)
		m.Steps.Add(int64(r.Events))
		if r.Quiesced {
			res.Quiesced++
		}
		var key strings.Builder
		for _, b := range r.Best {
			fmt.Fprintf(&key, "%d,", b)
		}
		outcomes[key.String()] = true
	}
	res.DistinctOutcomes = len(outcomes)
	res.ClassicOsc = res.Quiesced < res.Schedules
	return res
}
