package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/campaign"
	"repro/internal/lint"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/rib"
	"repro/internal/router"
	"repro/internal/sat"
	"repro/internal/selection"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/wire/bgp4"
)

// The probes time one layer's exported calls on fixed inputs taken from
// the workload's own topology. They say what a layer costs in isolation;
// the interaction table in README.md says which end-to-end metric that
// cost should show up in.

// nsPerOp times fn in batches of about sizes.probeBatch and returns the
// median batch's nanoseconds per call.
func (c *runCtx) nsPerOp(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= c.sz.probeBatch || n >= 1<<22 {
			break
		}
		n *= 4
	}
	var samples []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// speedup runs the parallel arm on GOMAXPROCS workers and returns
// serial/parallel, or nil where GOMAXPROCS is 1: no speed-up can be measured
// there, and the ≈1.0 a single core reports means nothing.
func speedup(serial float64, parallel func(workers int) float64) *float64 {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return nil
	}
	v := serial / parallel(procs)
	return &v
}

// topReflector is the first core reflector: the router with the widest
// Adj-RIB-In of a generated domain.
func topReflector(d *domain) bgp.NodeID {
	if u, ok := d.base.NodeByName("core0-0"); ok {
		return u
	}
	return 0
}

func probeSelection(c *runCtx, d *domain) {
	u := topReflector(d)
	var cands []bgp.Route
	var paths []bgp.ExitPath
	for i, p := range d.base.Exits() {
		cands = append(cands, d.base.Route(u, p, i))
		paths = append(paths, p)
	}
	best := func(k int) float64 {
		if k > len(cands) {
			k = len(cands)
		}
		scratch := make([]bgp.Route, k)
		return c.nsPerOp(func() {
			copy(scratch, cands[:k])
			selection.BestInPlace(scratch, selection.Options{})
		})
	}
	c.layer("selection.best_ns_4", best(4))
	c.layer("selection.best_ns_16", best(16))
	scratch := make([]bgp.ExitPath, len(paths))
	byAS := map[bgp.ASN]int{}
	c.layer("selection.survivors_ns", c.nsPerOp(func() {
		copy(scratch, paths)
		selection.SurvivorsBInPlace(scratch, selection.Options{}.MED, byAS)
	}))
}

// loadedRIB returns a standalone RIB for router u holding exactly the
// Adj-RIB-In u has after a single-prefix cold convergence, replayed from
// the simulator's UpdateReceived events.
func loadedRIB(d *domain, u bgp.NodeID) (*rib.RIB, error) {
	rb := rib.New(d.base, protocol.Modified, selection.Options{}, u)
	s := msgsim.New(d.base, protocol.Modified, selection.Options{}, msgsim.ConstantDelay(1))
	s.ObserveEvents(func(ev router.Event) {
		if ev.Kind != router.UpdateReceived || ev.Node != u {
			return
		}
		for _, rec := range ev.Update.Announced {
			rb.Learn(ev.Peer, bgp.PathID(rec.PathID))
		}
		for _, wd := range ev.Update.Withdrawn {
			rb.Unlearn(ev.Peer, bgp.PathID(wd.PathID))
		}
	})
	s.InjectAll()
	if res := s.Run(maxSimEvents); !res.Quiesced {
		return nil, fmt.Errorf("rib probe: simulator did not quiesce")
	}
	rb.RecomputeBest()
	if rb.Best() != s.Best(u) {
		return nil, fmt.Errorf("rib probe: replayed RIB chose p%d, the simulator's router p%d", rb.Best(), s.Best(u))
	}
	return rb, nil
}

func probeRIB(c *runCtx, d *domain) error {
	u := topReflector(d)
	rb, err := loadedRIB(d, u)
	c.check(err == nil, "%v", err)
	if err != nil {
		return nil
	}
	recompute := c.nsPerOp(func() { rb.RecomputeBest() })
	c.layer("rib.recompute_ns", recompute)

	// One path flapping at one peer keeps every flush's diff non-empty.
	peers := d.base.Peers(u)
	from, id := peers[0], rb.Best()
	for _, w := range peers {
		if ids := rb.AdjIn(w).IDs(); len(ids) > 0 {
			from, id = w, ids[0]
			break
		}
	}
	var ann, wd []bgp.PathID
	flush := func() {
		rb.RecomputeBest()
		rb.PrepareFlush()
		for _, w := range peers {
			ann, wd = rb.DiffInto(w, ann[:0], wd[:0])
			rb.ApplyDiff(w, ann, wd)
		}
	}
	cycle := c.nsPerOp(func() {
		rb.Unlearn(from, id)
		flush()
		rb.Learn(from, id)
		flush()
	})
	perPeer := (cycle/2 - recompute) / float64(len(peers))
	if perPeer < 0 {
		perPeer = 0
	}
	c.layer("rib.diff_ns_per_peer", perPeer)
	return nil
}

func discard(bgp.NodeID, *wire.Update) (int64, error) { return 0, nil }

func probeRouter(c *runCtx, d *domain) error {
	// Steady-state allocations: one exit flapping at its own router.
	ex := d.base.Exits()[0]
	var counters router.Counters
	r := router.Single(d.base, protocol.Modified, selection.Options{}).NewRouter(ex.ExitPoint, &counters)
	r.Inject(0, 0, ex.ID)
	r.Refresh(0, discard)
	cycle := func() {
		r.WithdrawExternal(0, 0, ex.ID)
		r.Refresh(0, discard)
		r.Inject(0, 0, ex.ID)
		r.Refresh(0, discard)
	}
	cycle()
	c.layer("router.allocs_per_refresh", testing.AllocsPerRun(100, cycle)/2)

	// One Refresh with every prefix dirty, serial against the worker pool:
	// the only input on which the pool has anything to fan out, since a
	// simulator refresh sees one dirty prefix.
	wide, err := buildDomain(c.sz.simFamily, c.sz.wideProbePrefixes, c.seed)
	if err != nil {
		return err
	}
	dom, err := router.NewDomain(wide.systems, protocol.Modified, selection.Options{})
	if err != nil {
		return err
	}
	u := topReflector(wide)
	from := wide.base.Peers(u)[0]
	var ann, wd wire.Update
	for _, p := range wide.prefixes {
		rec := wire.FromExitPath(wide.systems[p].Exit(0))
		rec.Prefix = p
		ann.Announced = append(ann.Announced, rec)
		wd.Withdrawn = append(wd.Withdrawn, wire.WithdrawnRoute{Prefix: p, PathID: rec.PathID})
	}
	refreshNS := func(workers int) float64 {
		var cnt router.Counters
		rt := dom.NewRouter(u, &cnt)
		rt.SetWorkers(workers)
		var failed error
		ns := c.nsPerOp(func() {
			for _, upd := range []*wire.Update{&ann, &wd} {
				if err := rt.ApplyUpdate(0, from, upd); err != nil {
					failed = err
				}
				rt.Refresh(0, discard)
			}
		}) / 2
		c.check(failed == nil && cnt.Sent.Load() > 0, "wide refresh probe with %d workers: error %v, %d UPDATEs sent", workers, failed, cnt.Sent.Load())
		return ns
	}
	serial := refreshNS(1)
	c.layer("router.refresh_wide_ns_w1", serial)
	c.layers["router.refresh_wide_speedup"] = speedup(serial, refreshNS)
	return nil
}

// codecUpdates builds the two message sizes the codecs are probed at: one
// route, the single-event churn regime of the simulators, and 64 routes
// over distinct prefixes, the coalesced regime of the TCP inbox drain.
func codecUpdates(d *domain) (small, large wire.Update) {
	for i := 0; i < 64; i++ {
		p := d.prefixes[i%len(d.prefixes)]
		sys := d.systems[p]
		rec := wire.FromExitPath(sys.Exit(bgp.PathID(i / len(d.prefixes) % sys.NumExits())))
		rec.Prefix = p
		large.Announced = append(large.Announced, rec)
	}
	small.Announced = large.Announced[:1]
	return small, large
}

func probeWire(c *runCtx, d *domain) {
	small, large := codecUpdates(d)
	for _, in := range []struct {
		suffix string
		u      *wire.Update
	}{{"small", &small}, {"64", &large}} {
		var buf []byte
		encode := func() { buf, _ = wire.AppendUpdate(buf[:0], in.u) }
		routes := 0
		decode := func() {
			v, _, err := wire.DecodeView(buf)
			if err != nil {
				routes = -1
				return
			}
			routes = 0
			for i, n := 0, v.NumAnnounced(); i < n; i++ {
				if v.AnnouncedAt(i) == in.u.Announced[i] {
					routes++
				}
			}
		}
		encode()
		decode()
		c.check(routes == len(in.u.Announced), "wire round trip of %d routes decoded %d", len(in.u.Announced), routes)
		c.layer("wire.encode_ns_per_update_"+in.suffix, c.nsPerOp(encode))
		c.layer("wire.decode_ns_per_update_"+in.suffix, c.nsPerOp(decode))
		c.layer("wire.bytes_per_update_"+in.suffix, float64(len(buf)))
		c.layer("wire.allocs_per_update_"+in.suffix, testing.AllocsPerRun(100, func() { encode(); decode() }))
	}
}

func probeBGP4(c *runCtx, d *domain) {
	small, large := codecUpdates(d)
	u := topReflector(d)
	id := uint32(d.base.BGPID(u))
	enc := bgp4.UpdateEncoder{LocalID: id, ClusterID: id, OriginatorID: func(exit uint32) (uint32, bool) {
		return uint32(d.base.BGPID(bgp.NodeID(exit))), true
	}}
	for _, in := range []struct {
		suffix string
		u      *wire.Update
	}{{"small", &small}, {"64", &large}} {
		var buf []byte
		encode := func() { buf = enc.Append(buf[:0], in.u) }
		routes, frames := 0, 0
		decode := func() {
			routes, frames = 0, 0
			for data := buf; len(data) > 0; {
				_, body, total, err := bgp4.SplitFrame(data)
				if err != nil {
					routes = -1
					return
				}
				f, err := bgp4.DecodeUpdate(body)
				if err != nil {
					routes = -1
					return
				}
				routes += len(f.Announced)
				frames++
				data = data[total:]
			}
		}
		encode()
		decode()
		c.check(routes == len(in.u.Announced), "bgp4 round trip of %d routes decoded %d", len(in.u.Announced), routes)
		c.layer("bgp4.encode_ns_per_update_"+in.suffix, c.nsPerOp(encode))
		c.layer("bgp4.decode_ns_per_update_"+in.suffix, c.nsPerOp(decode))
		c.layer("bgp4.bytes_per_update_"+in.suffix, float64(len(buf)))
		c.layer("bgp4.frames_per_update_"+in.suffix, float64(frames))
		c.layer("bgp4.allocs_per_update_"+in.suffix, testing.AllocsPerRun(100, func() { encode(); decode() }))
	}
}

func probeTelemetry(c *runCtx, d *domain) {
	_, large := codecUpdates(d)
	batch := make([]router.Event, 64)
	for i := range batch {
		batch[i] = router.Event{Kind: router.UpdateSent, Node: 1, Peer: 2, Update: &large}
		if i%4 == 0 {
			batch[i] = router.Event{Kind: router.BestChanged, Node: 1, OldBest: 0, NewBest: 1}
		}
	}
	feed := telemetry.NewFeed()
	perEvent := func() float64 { return c.nsPerOp(func() { feed.SinkBatch(batch) }) / float64(len(batch)) }
	c.layer("telemetry.sink_ns_per_event", perEvent())

	ch, cancel := feed.Subscribe()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range ch {
		}
	}()
	c.layer("telemetry.subscribed_ns_per_event", perEvent())
	cancel()
	<-drained

	for i := int64(0); i < 10_000; i++ {
		feed.RecordConvergence(i * 7919 % 10_007)
	}
	var st telemetry.Stats
	c.layer("telemetry.stats_ns_at_10k_samples", c.nsPerOp(func() { st = feed.Stats() }))
	c.check(st.Convergence.Count == 10_000, "telemetry stats lost samples: %d of 10000", st.Convergence.Count)
}

func probeExplore(c *runCtx, in []exploreInput) {
	big := in[0]
	for _, x := range in {
		if x.want.States > big.want.States {
			big = x
		}
	}
	var allocs uint64
	timed := func(workers int) float64 {
		var walls []float64
		for i := 0; i < 3; i++ {
			m0, t0 := mallocs(), time.Now()
			a := reachable(big.sys, exploreMaxStates, workers)
			walls = append(walls, time.Since(t0).Seconds())
			allocs = mallocs() - m0
			c.check(sameAnalysis(a, big.want), "exploration with %d workers differs from the screening pass", workers)
		}
		return median(walls)
	}
	serial := timed(1)
	states := float64(big.want.States)
	c.layer("explore.ns_per_state", 1e9*serial/states)
	c.layer("explore.mallocs_per_state", float64(allocs)/states)
	c.layer("explore.transitions_per_state", float64(big.want.Transitions)/states)
	c.layers["explore.workers_speedup"] = speedup(serial, timed)

	e := protocol.New(big.sys, protocol.Classic, selection.Options{})
	n, i := big.sys.N(), 0
	c.layer("protocol.activate_ns", c.nsPerOp(func() {
		e.Activate(bgp.NodeID(i % n))
		i++
	}))
	var words []uint64
	c.layer("protocol.encode_state_ns", c.nsPerOp(func() { words = e.EncodeState(words[:0]) }))
}

func probeCampaign(c *runCtx) error {
	var failure error
	var first []byte
	run := func(shards int) float64 {
		t0 := time.Now()
		agg, err := campaign.Run(context.Background(), censusJob(),
			campaign.Config{Start: c.seed * 1_000_000, Seeds: 8 * c.sz.censusBatch, Shards: shards})
		wall := time.Since(t0).Seconds()
		if err != nil {
			failure = err
			return wall
		}
		c.check(agg.ModifiedConv == agg.Completed-agg.Errors, "modified protocol converged on %d of %d systems", agg.ModifiedConv, agg.Completed-agg.Errors)
		out, err := json.Marshal(agg)
		if err != nil {
			failure = err
		}
		if first == nil {
			first = out
		}
		c.check(bytes.Equal(first, out), "census aggregate on %d shards differs from the one on 1 shard", shards)
		return wall
	}
	c.layers["campaign.shard_speedup"] = speedup(run(1), run)
	return failure
}

func probeLint(c *runCtx) error {
	var heuristic, prove []float64
	for n := 0; n < 3; n++ {
		sys, err := proveInput(c, n)
		if err != nil {
			return err
		}
		t0 := time.Now()
		lint.LintSystem("bench", sys)
		heuristic = append(heuristic, time.Since(t0).Seconds())
		if sys, err = proveInput(c, n); err != nil { // a system whose caches the heuristic pass has not filled
			return err
		}
		t0 = time.Now()
		r := lint.ProveSystem("bench", sys)
		prove = append(prove, time.Since(t0).Seconds())
		c.check(r.HasPass("prove-stable"), "topology %d: prove-stable did not run", n)
	}
	c.layer("lint.heuristic_s", median(heuristic))
	c.layer("lint.prove_s", median(prove))

	// Sixteen near-threshold random 3-SAT instances of the size
	// BenchmarkSolve3SAT uses; larger ones vary tenfold from seed to seed.
	const formulas = 16
	t0 := time.Now()
	for i := int64(0); i < formulas; i++ {
		f := sat.Random3SAT(60, 240, c.seed*100+i)
		if assign, ok := sat.Solve(f); ok {
			c.check(f.Eval(assign), "sat: model of formula %d does not satisfy it", i)
		}
	}
	c.layer("sat.solve_ns_3sat", float64(time.Since(t0).Nanoseconds())/formulas)
	return nil
}
