package campaign

import (
	"context"
	"fmt"

	"repro/internal/bgp"
	"repro/internal/chaos"
	"repro/internal/churn"
	"repro/internal/faults"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// ScaleJob is the ISP-scale operational workload: generate one provider
// topology per seed (topogen, including its multi-prefix exit overlays),
// run the sharded msgsim domain through a warm-up convergence and a few
// churn rounds, and — when Plans > 0 — re-run the domain under derived
// fault schedules and grade the chaos invariants per prefix. Everything
// runs on the deterministic msgsim substrate with seed-derived delay
// models, so the record is a pure function of the seed and aggregates are
// byte-identical across shard counts. It tests modified I-BGP, as ChaosJob
// does: the warm-up and re-convergence gates presuppose a convergence
// guarantee. Its chaos-plan variant runs under defaultChaosFaults.
type ScaleJob struct {
	// Spec selects the generated provider family, including the Prefixes
	// knob (topogen.Generate).
	Spec topogen.Spec
	// Churn shapes the per-round event workload; the zero value gets
	// churn.DefaultSpec. Seed and Prefixes are overridden per seed so the
	// record stays a function of the campaign seed and the generated
	// domain.
	Churn churn.Spec
	// Rounds is the number of churn rounds after warm-up (default 3).
	Rounds int
	// MRAI is the per-session minimum route advertisement interval in
	// virtual ticks (0 disables pacing, the default).
	MRAI int64
	// Plans is the number of fault schedules per seed for the chaos-plan
	// variant; 0 (the default) skips fault injection entirely.
	Plans int
}

// scaleMaxEvents bounds the warm-up and each run extension after it: scale
// domains move R*P prefixes' worth of messages per convergence.
const scaleMaxEvents = 500000

func (j ScaleJob) Name() string { return "scale" }

// Describe names what ran. The churn spec's Seed and Prefixes are left
// out — Run overrides both per seed (the seed itself, the generated
// family's prefix count).
func (j ScaleJob) Describe() string {
	j = j.fill()
	c := j.Churn
	return fmt.Sprintf("%+v policy=%v churn={rate=%v period=%d burst=%d flap=%v} rounds=%d mrai=%d plans=%d",
		j.Spec, protocol.Modified, c.Rate, c.Period, c.Burst, c.FlapProb, j.Rounds, j.MRAI, j.Plans)
}

func (j ScaleJob) fill() ScaleJob {
	if (j.Churn == churn.Spec{}) {
		j.Churn = churn.DefaultSpec()
	}
	if j.Rounds <= 0 {
		j.Rounds = 3
	}
	return j
}

// domain generates one seed's prefix-indexed system map. Every prefix
// shares the base session graph (topology.BuildSpecAll layers the
// generated PrefixExits as overlays), so router.NewDomain takes the
// shared-graph fast path and the whole domain costs one IGP solve.
func (j ScaleJob) domain(seed int64) (map[uint32]*topology.System, error) {
	spec, err := topogen.Generate(j.Spec, seed)
	if err != nil {
		return nil, err
	}
	systems, err := topology.BuildSpecAll(spec)
	if err != nil {
		return nil, err
	}
	dom := make(map[uint32]*topology.System, len(systems))
	for i, sys := range systems {
		dom[uint32(i)] = sys
	}
	return dom, nil
}

// sim builds one configured simulator over the domain.
func (j ScaleJob) sim(dom map[uint32]*topology.System, delay msgsim.DelayFunc) *msgsim.Sim {
	s := msgsim.NewMulti(dom, protocol.Modified, selection.Options{}, delay)
	s.SetMRAI(j.MRAI)
	return s
}

// Run processes one seed: warm-up to quiescence, churn rounds, then the
// optional chaos plans. Quiesced counts the warm-up plus every churn
// round and faulted run that reached rest; the chaos invariants
// (Reconverged, LoopFree, LedgerBroken) are graded over all prefixes at
// once — one prefix's loop or stale best fails the whole plan.
func (j ScaleJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	j = j.fill()
	res := SeedResult{Seed: seed}
	dom, err := j.domain(seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	base := dom[0]
	res.Nodes = base.N()

	// Warm-up and churn under a seed-derived random delay model.
	s := j.sim(dom, msgsim.MustRandomDelay(seed+1, 1, 10))
	s.InjectAll()
	r := s.Run(scaleMaxEvents)
	if r.Quiesced {
		res.Quiesced++
	}

	spec := j.Churn
	spec.Seed = seed
	spec.Prefixes = len(dom)
	st, err := churn.NewStream(spec, base.AllExitSet().IDs())
	if err != nil {
		res.Err = err.Error()
		return res
	}
	for rd := 0; rd < j.Rounds && ctx.Err() == nil; rd++ {
		r, _ = churn.RunRound(s, r, st.Next(), int64(rd)*spec.Period, scaleMaxEvents)
		if r.Quiesced {
			res.Quiesced++
		}
	}
	c := s.Counters()
	res.Messages += int(c.Sent)
	res.Flaps += int(c.Flaps)
	m.Steps.Add(c.Sent)

	if j.Plans <= 0 || ctx.Err() != nil {
		return res
	}

	// Chaos-plan variant: every faulted cold start must settle in a stable
	// solution of the model with every exit live.
	live := make(map[uint32]bgp.PathSet, len(dom))
	for prefix, sys := range dom {
		live[prefix] = sys.AllExitSet()
	}
	runPlans(ctx, seed, j.Plans, base.N(), m, &res, func(planSeed int64, plan *faults.Plan) (chaos.Report, error) {
		fs := j.sim(dom, msgsim.MustRandomDelay(planSeed+1, 1, 10))
		if err := fs.SetFaults(plan); err != nil {
			return chaos.Report{}, err
		}
		fs.InjectAll()
		quiesced := fs.Run(scaleMaxEvents).Quiesced
		fc := fs.Counters()
		v, _ := chaos.Grade(dom, protocol.Modified, selection.Options{}, live, chaos.Vectors(dom, fs.BestFor),
			chaos.Vectors(dom, fs.PossibleFor), chaos.Vectors(dom, fs.AnnouncedFor), fc, quiesced)
		return chaos.Report{Verdict: v, Counters: fc}, nil
	})
	return res
}
