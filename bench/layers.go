package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/churn"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// perLayer lists every per-layer metric, by module. A traced pass reports
// all of them; a workload that does not run a layer's measurement reports
// 0 for it. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"topogen.generate_s", "s"}, {"topology.build_s", "s"},
	{"selection.best_ns_4", "ns"}, {"selection.best_ns_16", "ns"}, {"selection.survivors_ns", "ns"},
	{"rib.recompute_ns", "ns"}, {"rib.diff_ns_per_peer", "ns"},
	{"router.refresh_ns_per_call", "ns"}, {"router.refresh_self_share", "ratio"},
	{"router.apply_ns_per_update", "ns"}, {"router.refresh_calls", "count"},
	{"router.updates_per_event", "count"}, {"router.routes_per_update", "count"},
	{"router.best_changes_per_event", "count"}, {"router.mrai_deferrals", "count"},
	{"router.noop_event_share", "ratio"}, {"router.allocs_per_refresh", "count"},
	{"router.refresh_wide_ns_w1", "ns"}, {"router.refresh_wide_speedup", "ratio"},
	{"wire.encode_ns_per_update_small", "ns"}, {"wire.decode_ns_per_update_small", "ns"},
	{"wire.bytes_per_update_small", "B"}, {"wire.allocs_per_update_small", "count"},
	{"wire.encode_ns_per_update_64", "ns"}, {"wire.decode_ns_per_update_64", "ns"},
	{"wire.bytes_per_update_64", "B"}, {"wire.allocs_per_update_64", "count"},
	{"bgp4.encode_ns_per_update_small", "ns"}, {"bgp4.decode_ns_per_update_small", "ns"},
	{"bgp4.bytes_per_update_small", "B"}, {"bgp4.frames_per_update_small", "count"}, {"bgp4.allocs_per_update_small", "count"},
	{"bgp4.encode_ns_per_update_64", "ns"}, {"bgp4.decode_ns_per_update_64", "ns"},
	{"bgp4.bytes_per_update_64", "B"}, {"bgp4.frames_per_update_64", "count"}, {"bgp4.allocs_per_update_64", "count"},
	{"msgsim.ns_per_msg", "ns"}, {"msgsim.events_per_msg", "count"},
	{"msgsim.transport_ns_per_msg", "ns"}, {"msgsim.allocs_per_msg", "count"},
	{"queue.wait_ns_per_msg", "ns"},
	{"faults.drops", "count"}, {"faults.dups", "count"}, {"faults.delays", "count"},
	{"faults.reorders", "count"}, {"faults.extra_msg_share", "ratio"},
	{"speaker.start_s", "s"}, {"speaker.sessions", "count"}, {"speaker.goroutines", "count"},
	{"speaker.cold_converge_s", "s"}, {"speaker.updates_per_event", "count"}, {"speaker.routes_per_update", "count"},
	{"speaker.dropped", "count"}, {"speaker.bad_frames", "count"}, {"speaker.cpu_busy_share", "ratio"},
	{"telemetry.sink_ns_per_event", "ns"}, {"telemetry.subscribed_ns_per_event", "ns"},
	{"telemetry.stats_ns_at_10k_samples", "ns"}, {"telemetry.flush_ns_per_refresh", "ns"},
	{"explore.ns_per_state", "ns"}, {"explore.mallocs_per_state", "count"},
	{"explore.transitions_per_state", "count"}, {"explore.workers_speedup", "ratio"},
	{"protocol.activate_ns", "ns"}, {"protocol.encode_state_ns", "ns"},
	{"campaign.shard_speedup", "ratio"},
	{"lint.heuristic_s", "s"}, {"lint.prove_s", "s"}, {"sat.solve_ns_3sat", "ns"},
	{"trace.overhead_share", "ratio"}, {"trace.spans", "count"},
}

// replayed is one pipeline replay: a warm-up convergence followed by churn
// events, of which either the warm-up (cold) or the events are measured.
type replayed struct {
	wall       float64
	msgs       int64 // UPDATEs sent in the measured part
	routes     int64 // routes those UPDATEs carried
	spans      []span
	hash       uint64
	quiescedOK bool
}

// replay runs the pipeline over the domain under the codec: the cold
// convergence, then evs one at a time. When measureCold is set the cold
// convergence is the measured (and traced) part, otherwise the events are.
// A traced replay also attaches a telemetry feed, so its spans include the
// event fan-out and its overhead is spans and feed together.
func replay(d *domain, codec string, evs []churn.Event, measureCold, traced bool) (*replayed, error) {
	var rec *recorder
	var feed *telemetry.Feed
	if traced {
		rec, feed = newRecorder(), telemetry.NewFeed()
	}
	p, err := newPipeline(d, codec, feed)
	if err != nil {
		return nil, err
	}
	out := &replayed{}
	measure := func(fn func() error) error {
		p.rec = rec
		sent0, routes0 := p.counters.Sent.Load(), p.routes
		t0 := time.Now()
		err := fn()
		out.wall = time.Since(t0).Seconds()
		out.msgs, out.routes = p.counters.Sent.Load()-sent0, p.routes-routes0
		p.rec = nil
		return err
	}
	if measureCold {
		err = measure(p.cold)
	} else {
		err = p.cold()
	}
	if err != nil {
		return nil, err
	}
	events := func() error {
		for _, ev := range evs {
			if err := p.apply(ev); err != nil {
				return err
			}
		}
		return nil
	}
	if measureCold {
		err = events()
	} else {
		err = measure(events)
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		out.spans = rec.spans
	}
	out.hash = stateHash(d.prefixes, d.routers, p.best)
	out.quiescedOK = ledgerClosed(p.counters.Snapshot())
	return out, nil
}

// tracePipeline replays the input untraced and traced, checks both against
// the substrate's state hash, derives the span metrics and writes the span
// file. It returns the untraced wall of the measured part.
func tracePipeline(c *runCtx, d *domain, codec string, evs []churn.Event, measureCold bool, want uint64) (float64, error) {
	plain, err := replay(d, codec, evs, measureCold, false)
	if err != nil {
		return 0, err
	}
	traced, err := replay(d, codec, evs, measureCold, true)
	if err != nil {
		return 0, err
	}
	for _, r := range []*replayed{plain, traced} {
		c.check(r.quiescedOK && r.hash == want,
			"%s pipeline reached state %016x with ledger closed=%v; the substrate reached %016x", codec, r.hash, r.quiescedOK, want)
	}
	c.check(plain.msgs == traced.msgs, "tracing changed the message count: %d untraced, %d traced", plain.msgs, traced.msgs)
	c.hashes["pipeline_updates"] = fmt.Sprint(plain.msgs)

	by := totalsByKind(traced.spans)
	per := func(k spanKind) float64 {
		if by[k].count == 0 {
			return 0
		}
		return float64(by[k].total) / float64(by[k].count)
	}
	c.layer("router.refresh_ns_per_call", per(spanRefresh))
	if t := by[spanRefresh].total; t > 0 {
		c.layer("router.refresh_self_share", float64(by[spanRefresh].own)/float64(t))
	}
	c.layer("router.refresh_calls", float64(by[spanRefresh].count))
	c.layer("router.apply_ns_per_update", per(spanApply))
	c.layer("queue.wait_ns_per_msg", per(spanQueueWait))
	c.layer("telemetry.flush_ns_per_refresh", per(spanSink))
	c.layer("trace.spans", float64(len(traced.spans)))
	c.layer("trace.overhead_share", (traced.wall-plain.wall)/plain.wall)
	if err := writeSpans(c.outDir, c.workload, traced.spans); err != nil {
		return 0, fmt.Errorf("write spans: %w", err)
	}
	if plain.msgs > 0 {
		c.layer("router.routes_per_update", float64(plain.routes)/float64(plain.msgs))
	}
	return plain.wall, nil
}

func (c *runCtx) layerDomain(d *domain) {
	c.layer("topogen.generate_s", d.genS)
	c.layer("topology.build_s", d.buildS)
}

// coreProbes are the kernels every simulator workload leans on.
func coreProbes(c *runCtx, d *domain) error {
	probeSelection(c, d)
	if err := probeRIB(c, d); err != nil {
		return err
	}
	if err := probeRouter(c, d); err != nil {
		return err
	}
	probeWire(c, d)
	return nil
}

// traceSimCold attributes the cold trip. The simulator and the pipeline
// both run the sim-cold input on the mid family (the stated family's
// million-message trip would record six million spans); the probes run on
// the stated family's domain.
func traceSimCold(c *runCtx) error {
	full, err := buildDomain(c.sz.simFamily, c.sz.coldPrefixes, c.seed)
	if err != nil {
		return err
	}
	c.layerDomain(full)
	d, err := buildDomain(c.sz.tcpFamily, c.sz.coldPrefixes, c.seed)
	if err != nil {
		return err
	}
	s := newSim(d, c.seed)
	m0, t0 := mallocs(), time.Now()
	s.InjectAll()
	res := s.Run(maxSimEvents)
	wall, allocs := time.Since(t0).Seconds(), mallocs()-m0
	snap := s.Counters()
	c.check(res.Quiesced && ledgerClosed(snap), "simulator cold trip did not quiesce with a closed ledger")
	injected := float64(len(d.prefixes) * d.exits)
	nsPerMsg := 1e9 * wall / float64(res.Messages)
	c.layer("msgsim.ns_per_msg", nsPerMsg)
	c.layer("msgsim.events_per_msg", float64(res.Events)/float64(res.Messages))
	c.layer("msgsim.allocs_per_msg", float64(allocs)/float64(res.Messages))
	c.layer("router.updates_per_event", float64(snap.Sent)/injected)
	c.layer("router.best_changes_per_event", float64(snap.Flaps)/injected)
	c.hashes["sim_updates"] = fmt.Sprint(res.Messages)

	want := stateHash(d.prefixes, d.routers, s.BestFor)
	c.hash("state_hash_traced", want)
	pipeWall, err := tracePipeline(c, d, "private", nil, true, want)
	if err != nil {
		return err
	}
	c.layer("msgsim.transport_ns_per_msg", 1e9*(wall-pipeWall)/float64(res.Messages))
	return coreProbes(c, full)
}

// churnEvents draws the first n events of the workload's stream.
func churnEvents(d *domain, rate float64, seed int64, n int) ([]churn.Event, *eventSource, error) {
	es, err := newEventSource(d, rate, seed)
	if err != nil {
		return nil, nil, err
	}
	evs := make([]churn.Event, n)
	for i := range evs {
		evs[i] = es.next()
	}
	return evs, es, nil
}

// simChurnCounts applies evs to a warmed-up simulator and reports the
// boundary counts of the churn part.
type simChurnCounts struct {
	wall                 float64
	msgs, events, allocs int64
	noop                 int
	before, after        router.Snapshot
	hash                 uint64
	settled              bool // every step quiesced and the ledger closed
}

func runSimChurnCounts(cs *churnSim, evs []churn.Event) simChurnCounts {
	out := simChurnCounts{before: cs.s.Counters(), settled: true}
	msgs0, events0 := cs.msgs, cs.events
	m0, t0 := mallocs(), time.Now()
	for _, ev := range evs {
		quiesced, moved := cs.apply(ev)
		if !moved {
			out.noop++
		}
		out.settled = out.settled && quiesced
	}
	out.wall = time.Since(t0).Seconds()
	out.allocs = int64(mallocs() - m0)
	out.after = cs.s.Counters()
	out.msgs, out.events = int64(cs.msgs-msgs0), int64(cs.events-events0)
	out.hash = stateHash(cs.d.prefixes, cs.d.routers, cs.s.BestFor)
	out.settled = out.settled && ledgerClosed(out.after)
	return out
}

// traceSimChurn attributes the incremental path at the stated size: the
// simulator's per-message cost and boundary counts, then the same warm-up
// and events through the traced pipeline.
func traceSimChurn(c *runCtx) error {
	cs, err := setupChurnSim(c, 0, nil)
	if err != nil {
		return err
	}
	c.layerDomain(cs.d)
	evs, _, err := churnEvents(cs.d, c.sz.simRate, c.seed, c.sz.traceEvents)
	if err != nil {
		return err
	}
	n := runSimChurnCounts(cs, evs)
	c.check(n.settled, "simulator churn did not quiesce with a closed ledger")
	c.check(n.msgs > 0, "no churn event moved any router")
	nsPerMsg := 1e9 * n.wall / float64(n.msgs)
	c.layer("msgsim.ns_per_msg", nsPerMsg)
	c.layer("msgsim.events_per_msg", float64(n.events)/float64(n.msgs))
	c.layer("msgsim.allocs_per_msg", float64(n.allocs)/float64(n.msgs))
	c.layer("router.updates_per_event", float64(n.msgs)/float64(len(evs)))
	c.layer("router.best_changes_per_event", float64(n.after.Flaps-n.before.Flaps)/float64(len(evs)))
	c.layer("router.noop_event_share", float64(n.noop)/float64(len(evs)))
	c.hashes["sim_updates"] = fmt.Sprint(n.msgs)
	c.hash("state_hash_traced", n.hash)

	pipeWall, err := tracePipeline(c, cs.d, "private", evs, false, n.hash)
	if err != nil {
		return err
	}
	c.layer("msgsim.transport_ns_per_msg", 1e9*(n.wall-pipeWall)/float64(n.msgs))
	probeTelemetry(c, cs.d)
	return coreProbes(c, cs.d)
}

// traceSimChurnFaults counts what the fault plan does to the same events:
// the fates drawn, the MRAI deferrals, and the UPDATEs sent beyond what the
// fault-free run needed.
func traceSimChurnFaults(c *runCtx) error {
	clean, err := setupChurnSim(c, 0, nil)
	if err != nil {
		return err
	}
	c.layerDomain(clean.d)
	evs, _, err := churnEvents(clean.d, c.sz.simRate, c.seed, c.sz.traceEvents)
	if err != nil {
		return err
	}
	base := runSimChurnCounts(clean, evs)
	clean = nil // let the fault-free simulator go before the second one is built
	faulted, err := setupChurnSim(c, 5, faultPlan(c.seed))
	if err != nil {
		return err
	}
	n := runSimChurnCounts(faulted, evs)
	c.check(base.settled && n.settled, "simulator churn did not quiesce with a closed ledger")
	c.check(n.hash == base.hash, "faulted run reached state %016x, fault-free run %016x", n.hash, base.hash)
	c.check(base.msgs > 0, "no churn event moved any router")
	c.hash("state_hash_traced", n.hash)
	c.hashes["sim_updates"] = fmt.Sprint(n.msgs)

	c.layer("faults.drops", float64(n.after.FaultDrops-n.before.FaultDrops))
	c.layer("faults.dups", float64(n.after.FaultDups-n.before.FaultDups))
	c.layer("faults.delays", float64(n.after.FaultDelays-n.before.FaultDelays))
	c.layer("faults.reorders", float64(n.after.FaultReorders-n.before.FaultReorders))
	c.layer("faults.extra_msg_share", float64(n.msgs)/float64(base.msgs)-1)
	c.layer("router.mrai_deferrals", float64(n.after.Deferrals-n.before.Deferrals))
	c.layer("router.updates_per_event", float64(n.msgs)/float64(len(evs)))
	c.layer("router.best_changes_per_event", float64(n.after.Flaps-n.before.Flaps)/float64(len(evs)))
	c.layer("router.noop_event_share", float64(n.noop)/float64(len(evs)))
	c.layer("msgsim.ns_per_msg", 1e9*n.wall/float64(n.msgs))
	c.layer("msgsim.events_per_msg", float64(n.events)/float64(n.msgs))
	c.layer("msgsim.allocs_per_msg", float64(n.allocs)/float64(n.msgs))
	return nil
}

// traceTCP attributes the TCP trip: what the speakers cost to start and
// how they coalesce, counted on the real network (timing-dependent), then
// the same warm-up and rounds through the traced pipeline under the same
// codec, then the codec's kernels.
func traceTCP(c *runCtx, codec string) error {
	var updates, routes atomic.Int64
	t, err := setupTCP(c, codec, func(evs []router.Event) {
		for i := range evs {
			if evs[i].Kind == router.UpdateSent {
				updates.Add(1)
				routes.Add(int64(len(evs[i].Update.Announced) + len(evs[i].Update.Withdrawn)))
			}
		}
	})
	if err != nil {
		return err
	}
	defer t.n.Stop()
	c.layerDomain(t.d)
	sessions := 0
	for u := 0; u < t.d.routers; u++ {
		sessions += len(t.d.base.Peers(bgp.NodeID(u)))
	}
	c.layer("speaker.start_s", t.startS)
	c.layer("speaker.sessions", float64(sessions/2))
	c.layer("speaker.goroutines", float64(runtime.NumGoroutine()))
	c.layer("speaker.cold_converge_s", t.coldS)

	u0, r0 := updates.Load(), routes.Load()
	cpu0, t0 := cpuSeconds(), time.Now()
	for round := 0; round < c.sz.traceRounds; round++ {
		_, _, quiesced := t.round(c)
		c.check(quiesced && ledgerClosed(t.n.Counters()), "round %d did not quiesce with a closed ledger", round)
	}
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	snap := t.n.Counters()
	if du := updates.Load() - u0; du > 0 {
		c.layer("speaker.updates_per_event", float64(du)/float64(len(t.applied)))
		c.layer("speaker.routes_per_update", float64(routes.Load()-r0)/float64(du))
	}
	c.layer("speaker.dropped", float64(snap.Dropped))
	c.layer("speaker.bad_frames", float64(snap.BadFrames))
	c.layer("speaker.cpu_busy_share", cpu/wall/float64(runtime.GOMAXPROCS(0)))
	if err := t.checkState(c); err != nil {
		return err
	}
	want := stateHash(t.d.prefixes, t.d.routers, t.n.BestFor)
	c.hash("state_hash_traced", want)
	if _, err := tracePipeline(c, t.d, codec, t.applied, false, want); err != nil {
		return err
	}
	if codec == "bgp4" {
		probeBGP4(c, t.d)
	} else {
		probeWire(c, t.d)
	}
	return nil
}

func traceTCPPrivate(c *runCtx) error { return traceTCP(c, "private") }
func traceTCPBGP4(c *runCtx) error    { return traceTCP(c, "bgp4") }

func traceExplore(c *runCtx) error {
	in, err := exploreInputs(c)
	if err != nil {
		return err
	}
	probeExplore(c, in)
	return nil
}

func traceCensus(c *runCtx) error { return probeCampaign(c) }

func traceProve(c *runCtx) error {
	full, err := buildDomain(c.sz.simFamily, 1, c.seed)
	if err != nil {
		return err
	}
	c.layerDomain(full)
	return probeLint(c)
}
