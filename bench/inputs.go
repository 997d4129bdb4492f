package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/churn"
	"repro/internal/faults"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
	wl "repro/internal/workload"
)

// sizes fixes every input dimension of the benchmark. There are two
// instances: the stated sizes the numbers in BENCHMARK.json are taken at,
// and the -quick sizes the harness tests run in well under a second.
type sizes struct {
	simFamily, tcpFamily topogen.Spec

	coldPrefixes, churnPrefixes, tcpPrefixes int

	// simRate and tcpRate are churn.Spec.Rate with Period 1000: the event
	// slots one stream round draws. The sims apply a round's events one at
	// a time; the TCP workloads apply a whole round back to back.
	simRate, tcpRate float64

	// hashAt is the event count at which sim-churn and sim-churn-faults
	// both record a state hash, and hashRound the round at which the TCP
	// workloads do, so that two runs of the same seed can be compared at a
	// common point however much work each fitted into its window.
	hashAt, hashRound int

	// refSim and refTCP bound how many prefixes the fresh-convergence
	// reference covers (per-prefix convergence is independent, so a sample
	// of prefixes is checked exactly).
	refSim, refTCP int

	// traceEvents and traceRounds bound the churn replayed in the traced
	// pipeline pass.
	traceEvents, traceRounds int

	settle, quiesceBudget time.Duration

	exploreFamily                          wl.Params
	exploreSystems, exploreMin, exploreMax int
	censusBatch                            int
	wideProbePrefixes                      int

	probeBatch time.Duration // how long one timed batch of a kernel probe runs
}

func statedSizes() sizes {
	mid := topogen.Default()
	mid.ClientsPerPoP = 5
	return sizes{
		simFamily: topogen.Default(), tcpFamily: mid,
		coldPrefixes: 64, churnPrefixes: 16, tcpPrefixes: 256,
		simRate: 200, tcpRate: 40,
		hashAt: 300, hashRound: 20,
		refSim: 8, refTCP: 64,
		traceEvents: 500, traceRounds: 20,
		settle: 10 * time.Millisecond, quiesceBudget: 30 * time.Second,
		exploreFamily:  exploreParams,
		exploreSystems: 24, exploreMin: 200, exploreMax: 3000,
		censusBatch:       25,
		wideProbePrefixes: 256,
		probeBatch:        2 * time.Millisecond,
	}
}

func quickSizes() sizes {
	s := statedSizes()
	s.simFamily, s.tcpFamily = topogen.Small(), topogen.Small()
	s.coldPrefixes, s.churnPrefixes, s.tcpPrefixes = 4, 4, 4
	s.simRate, s.tcpRate = 20, 8
	s.hashAt, s.hashRound = 20, 2
	s.traceEvents, s.traceRounds = 15, 2
	s.exploreFamily, s.exploreSystems, s.exploreMin, s.exploreMax = censusParams, 2, 10, 200
	s.censusBatch = 4
	s.wideProbePrefixes = 4
	s.probeBatch = 50 * time.Microsecond
	return s
}

// exploreParams is the 3-cluster MED-rich family of BenchmarkReachable;
// censusParams the 2-cluster family of BenchmarkCensus.
var (
	exploreParams = wl.Params{Clusters: 3, MinClients: 2, MaxClients: 3, ASes: 3,
		Exits: 8, MaxMED: 3, MaxCost: 8, ExtraLinks: 3}
	censusParams = wl.Params{Clusters: 2, MinClients: 1, MaxClients: 2, ASes: 2,
		Exits: 4, MaxMED: 2, MaxCost: 8, ExtraLinks: 2}
)

// domain is one generated multi-prefix input: the per-prefix systems over
// a shared session graph, plus how long generating and building took.
type domain struct {
	systems        map[uint32]*topology.System
	base           *topology.System
	prefixes       []uint32
	genS, buildS   float64
	routers, exits int
}

func buildDomain(spec topogen.Spec, prefixes int, seed int64) (*domain, error) {
	spec.Prefixes = prefixes
	t0 := time.Now()
	tsp, err := topogen.Generate(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	t1 := time.Now()
	all, err := topology.BuildSpecAll(tsp)
	if err != nil {
		return nil, fmt.Errorf("build topology: %w", err)
	}
	d := &domain{
		systems: make(map[uint32]*topology.System, len(all)),
		base:    all[0],
		genS:    t1.Sub(t0).Seconds(), buildS: time.Since(t1).Seconds(),
		routers: all[0].N(), exits: all[0].NumExits(),
	}
	for i, sys := range all {
		d.systems[uint32(i)] = sys
		d.prefixes = append(d.prefixes, uint32(i))
	}
	return d, nil
}

// eventSource turns a churn.Stream into the flat event sequence the
// workloads apply, and tracks which exit paths are announced after the
// events handed out so far — the input of the fresh-convergence reference.
type eventSource struct {
	st   *churn.Stream
	buf  []churn.Event
	live []map[bgp.PathID]bool
}

func newEventSource(d *domain, rate float64, seed int64) (*eventSource, error) {
	paths := make([]bgp.PathID, 0, d.exits)
	for _, p := range d.base.Exits() {
		paths = append(paths, p.ID)
	}
	spec := churn.Spec{Seed: seed, Prefixes: len(d.prefixes), Rate: rate, Period: 1000, Burst: 300, FlapProb: 0.2}
	st, err := churn.NewStream(spec, paths)
	if err != nil {
		return nil, err
	}
	es := &eventSource{st: st}
	for range d.prefixes {
		m := make(map[bgp.PathID]bool, len(paths))
		for _, id := range paths {
			m[id] = true
		}
		es.live = append(es.live, m)
	}
	return es, nil
}

// fetch returns the next stream round in application order: stably sorted
// by offset, as churn.SoakTCP applies it, so a flap's withdrawal precedes
// its re-announcement.
func (es *eventSource) fetch() []churn.Event {
	evs := es.st.Next()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// round hands out one whole stream round.
func (es *eventSource) round() []churn.Event {
	evs := es.fetch()
	for _, ev := range evs {
		es.live[ev.Prefix][ev.Path] = !ev.Withdraw
	}
	return evs
}

// next hands out one event.
func (es *eventSource) next() churn.Event {
	for len(es.buf) == 0 {
		es.buf = es.fetch()
	}
	ev := es.buf[0]
	es.buf = es.buf[1:]
	es.live[ev.Prefix][ev.Path] = !ev.Withdraw
	return ev
}

// faultPlan is the sim-churn-faults plan: every fate kind at a rate that
// keeps a visible share of traffic off the fast path, no horizon, no
// resets.
func faultPlan(seed int64) *faults.Plan {
	return &faults.Plan{Seed: seed + 6, Drop: 0.05, Duplicate: 0.05, Reorder: 0.1, Delay: 0.2, MaxExtraDelay: 9}
}

// samplePrefixes picks at most max of the domain's prefixes, evenly
// spaced.
func samplePrefixes(prefixes []uint32, max int) []uint32 {
	if len(prefixes) <= max {
		return prefixes
	}
	stride := len(prefixes) / max
	out := make([]uint32, 0, max)
	for i := 0; i < len(prefixes) && len(out) < max; i += stride {
		out = append(out, prefixes[i])
	}
	return out
}

// referenceHash converges a fresh simulator holding only the sampled
// prefixes, with only the currently announced exit paths injected, and
// returns its state hash. The substrate under test reached its state
// through a history of announcements, withdrawals, delays and faults; by
// Lemma 7.4 both must agree.
func referenceHash(d *domain, sample []uint32, live []map[bgp.PathID]bool) (uint64, error) {
	sub := make(map[uint32]*topology.System, len(sample))
	for _, p := range sample {
		sub[p] = d.systems[p]
	}
	ref := msgsim.NewMulti(sub, protocol.Modified, selection.Options{}, msgsim.ConstantDelay(1))
	for _, p := range sample {
		for _, ex := range d.systems[p].Exits() {
			if live == nil || live[p][ex.ID] {
				ref.InjectPrefixAt(0, p, ex.ID)
			}
		}
	}
	if res := ref.Run(maxSimEvents); !res.Quiesced {
		return 0, fmt.Errorf("reference simulator did not quiesce")
	}
	return stateHash(sample, d.routers, ref.BestFor), nil
}

// maxSimEvents is msgsim.Run's divergence guard; the modified protocol
// always quiesces, so it is never the binding limit.
const maxSimEvents = 1 << 40
