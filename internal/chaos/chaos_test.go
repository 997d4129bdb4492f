package chaos

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/speaker"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/workload"
)

// explain renders the first violated invariant, or "ok".
func (r Report) explain() string {
	switch {
	case !r.Quiesced:
		return fmt.Sprintf("did not quiesce: %d messages outstanding", r.Counters.Outstanding())
	case !r.Reconverged():
		u := r.Diverged[0]
		return fmt.Sprintf("not a stable solution: router %d best p%d, model p%d", u, r.Best[u], r.Reference[u])
	case !r.WithdrawnFlushed():
		return "a withdrawn route survives in some candidate set"
	case !r.LoopFree():
		return fmt.Sprintf("forwarding plane has a loop under %v", r.Best)
	case !r.LedgerClosed:
		return fmt.Sprintf("ledger broken: sent=%d received=%d rejected=%d dropped=%d",
			r.Counters.Sent, r.Counters.Received, r.Counters.Rejected, r.Counters.Dropped)
	default:
		return "ok"
	}
}

// checkTCP runs CheckSim's invariant check over the TCP speakers: real
// connections, real teardowns on reset fates, wall-clock fault horizon.
func checkTCP(sys *topology.System, cfg Config) (Report, error) {
	n := speaker.New(sys, cfg.Policy, selection.Options{})
	if err := n.SetFaults(cfg.Plan); err != nil {
		return Report{}, err
	}
	if err := n.Start(); err != nil {
		return Report{}, err
	}
	defer n.Stop()
	n.InjectAll()
	quiesced := n.WaitQuiesce(15*time.Second, 150*time.Millisecond)
	return cfg.report(sys, n.BestFor,
		func(prefix uint32, u bgp.NodeID) bgp.PathSet { return n.Speaker(u).PossibleFor(prefix) },
		func(prefix uint32, u bgp.NodeID) bgp.PathSet { return n.Speaker(u).AnnouncedFor(prefix) },
		n.Counters(), quiesced), nil
}

// TestCheckSimModifiedUnderRandomPlans: the headline invariant — modified
// I-BGP re-converges to the Lemma 7.4 configuration under any fault mix
// that ceases, loop-free, ledger closed.
func TestCheckSimModifiedUnderRandomPlans(t *testing.T) {
	for _, fig := range []struct {
		name string
		f    *figures.Fig
	}{
		{"Fig1a", figures.Fig1a()},
		{"Fig3", figures.Fig3()},
		{"Fig14", figures.Fig14()},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			plan, err := faults.RandomPlan(seed, fig.f.Sys.N(), faults.RandomConfig{
				Drop: 0.12, Duplicate: 0.08, Reorder: 0.08, Delay: 0.25,
				MaxExtraDelay: 12, Resets: 2, Horizon: 500,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := CheckSim(fig.f.Sys, Config{
				Policy: protocol.Modified, Plan: plan, DelaySeed: seed,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", fig.name, seed, err)
			}
			if !rep.OK() {
				t.Fatalf("%s seed %d (%q): %s", fig.name, seed, plan, rep.explain())
			}
		}
	}
}

// TestCheckSimWithdrawUnderFaults: an E-BGP withdrawal racing drops and a
// session reset must still flush the route from every candidate set. The
// test drives msgsim itself, withdrawing r2 at tick 40, and grades the
// settled state with r2 outside the live set.
func TestCheckSimWithdrawUnderFaults(t *testing.T) {
	f := figures.Fig14()
	u := bgp.NodeID(0)
	w := f.Sys.Peers(u)[0]
	s := msgsim.New(f.Sys, protocol.Modified, selection.Options{}, msgsim.MustRandomDelay(2, 1, 10))
	if err := s.SetFaults(&faults.Plan{
		Seed: 9, Drop: 0.2, Delay: 0.3, MaxExtraDelay: 10,
		Resets:  []faults.Reset{{A: u, B: w, At: 60, Downtime: 50}},
		Horizon: 800,
	}); err != nil {
		t.Fatal(err)
	}
	s.InjectAll()
	s.WithdrawPrefixAt(40, 0, f.Path("r2"))
	res := s.Run(200000)
	systems := map[uint32]*topology.System{0: f.Sys}
	live := f.Sys.AllExitSet()
	live.Remove(f.Path("r2"))
	best := Vectors(systems, s.BestFor)
	v, model := Grade(systems, protocol.Modified, selection.Options{}, map[uint32]bgp.PathSet{0: live}, best,
		Vectors(systems, s.PossibleFor), Vectors(systems, s.AnnouncedFor), s.Counters(), res.Quiesced)
	if rep := (Report{v, best[0], model[0], s.Counters()}); !rep.OK() {
		t.Fatal(rep.explain())
	}
	if got := s.Counters().Resets; got != 1 {
		t.Fatalf("Resets = %d, want 1", got)
	}
}

// TestClassicPathologiesSurviveFaults: fault injection must not mask the
// paper's pathologies. Figure 1(a) has no stable configuration under
// classic I-BGP — it must keep oscillating, faults or none, and checking
// it is a failed quiesced verdict, not an error or a hang. Figure 3 is
// the timing-dependence example: it has two stable solutions, and which
// one classic I-BGP lands on must still vary with timing when fault
// schedules perturb the message orderings.
func TestClassicPathologiesSurviveFaults(t *testing.T) {
	plan := &faults.Plan{Seed: 4, Drop: 0.05, Delay: 0.2, MaxExtraDelay: 8, Horizon: 300}
	rep, err := CheckSim(figures.Fig1a().Sys, Config{
		Policy: protocol.Classic, Plan: plan, DelaySeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quiesced {
		t.Fatal("classic Fig1a quiesced under faults")
	}

	// Figure 3's timing dependence is the r1 flash: r1 appears and is
	// withdrawn again, and whether its MED kill of r3 propagates before the
	// withdrawal decides which of the two stable solutions the system
	// settles in. Under fault-perturbed delays, both must still occur.
	f3 := figures.Fig3()
	outcomes := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		p := &faults.Plan{Seed: seed, Drop: 0.1, Delay: 0.4, MaxExtraDelay: 20, Horizon: 400}
		s := msgsim.New(f3.Sys, protocol.Classic, selection.Options{},
			msgsim.MustRandomDelay(seed, 1, 25))
		if err := s.SetFaults(p); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"r2", "r3", "r4", "r5", "r6"} {
			s.InjectPrefixAt(0, 0, f3.Path(name))
		}
		s.InjectPrefixAt(0, 0, f3.Path("r1"))
		s.WithdrawPrefixAt(60, 0, f3.Path("r1"))
		res := s.Run(50000)
		if !res.Quiesced {
			continue // classic Fig3 may also churn past the budget
		}
		c := s.Counters()
		if c.Sent != c.Received+c.Rejected+c.Dropped {
			t.Fatalf("seed %d: ledger broken: %+v", seed, c)
		}
		outcomes[fmt.Sprint(res.Best)] = true
	}
	if len(outcomes) < 2 {
		t.Fatalf("classic Fig3 lost its timing dependence under faults: outcomes %v", outcomes)
	}
}

// TestCheckTCPModifiedWithReset: the same invariants over real TCP
// sessions, including a genuine connection teardown and redial.
func TestCheckTCPModifiedWithReset(t *testing.T) {
	f := figures.Fig1a()
	u := bgp.NodeID(0)
	w := f.Sys.Peers(u)[0]
	rep, err := checkTCP(f.Sys, Config{
		Policy: protocol.Modified,
		Plan: &faults.Plan{
			Seed: 6, Drop: 0.25, Duplicate: 0.15, Delay: 0.3, MaxExtraDelay: 20,
			Resets:  []faults.Reset{{A: u, B: w, At: 50, Downtime: 40}},
			Horizon: 700,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal(rep.explain())
	}
}

// TestCheckSimReorderKeepsDisjointAnnouncements pins a re-convergence
// regression in the simulator's reorder handling. An update overtaken in
// flight used to be discarded whole on delivery; but updates are diffs,
// so an announcement for a route the overtaking update never mentioned
// was lost forever, and the run quiesced into a configuration differing
// from the Lemma 7.4 reference. Seeds 2, 11 and 13 of the default census
// family reproduced this under the ChaosJob default fault mix; the fix
// sequences overtaken updates at route granularity (msgsim filterStale).
func TestCheckSimReorderKeepsDisjointAnnouncements(t *testing.T) {
	cfg := faults.RandomConfig{
		Drop: 0.1, Duplicate: 0.05, Reorder: 0.05, Delay: 0.2,
		MaxExtraDelay: 15, Resets: 2, Horizon: 500,
	}
	for _, seed := range []int64{2, 11, 13} {
		sys, err := workload.Generate(workload.Default(3), seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 2; i++ {
			planSeed := seed*2 + i
			plan, err := faults.RandomPlan(planSeed, sys.N(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := CheckSim(sys, Config{
				Policy: protocol.Modified, Plan: plan, DelaySeed: planSeed + 1,
			})
			if err != nil {
				t.Fatalf("seed %d plan %d: %v", seed, i, err)
			}
			if !rep.OK() {
				t.Errorf("seed %d plan %d: %s (best %v, reference %v)",
					seed, i, rep.explain(), rep.Best, rep.Reference)
			}
		}
	}
}

// TestGradeFlagsEachInvariant proves the oracle can say no. Starting from a
// genuinely settled Figure 14 run under the modified protocol — which must
// pass — each case breaks exactly one invariant on the last prefix of the
// domain, and Grade must fail that verdict, hold the other four, and name
// the prefix (never its healthy sibling) in the evidence. The loop case is
// graded under Classic, whose stable solution it is.
func TestGradeFlagsEachInvariant(t *testing.T) {
	f := figures.Fig14()
	c1, c2 := f.Node("c1"), f.Node("c2")
	r1, r2 := f.Path("r1"), f.Path("r2")
	type input struct {
		policy              protocol.Policy
		best                map[uint32][]bgp.PathID
		live                map[uint32]bgp.PathSet
		possible, announced map[uint32][]bgp.PathSet
		counters            router.Snapshot
		quiesced            bool
	}
	uniform := func(id bgp.PathID) []bgp.PathID {
		return []bgp.PathID{id, id, id, id}
	}
	// onlyR1 settles prefix p with r2 withdrawn: everyone holds, selects
	// and announces r1 alone, which is stable under every policy.
	onlyR1 := func(in *input, p uint32) {
		in.live[p] = bgp.NewPathSet(r1)
		in.best[p] = uniform(r1)
		in.possible[p] = []bgp.PathSet{in.live[p], in.live[p], in.live[p], in.live[p]}
		in.announced[p] = slices.Clone(in.possible[p])
	}
	cases := []struct {
		name   string
		mutate func(in *input, bad uint32)
		fails  string // the one verdict that must fail, "" for none
	}{
		{"settled", func(*input, uint32) {}, ""},
		{"best off the model", func(in *input, bad uint32) {
			// c1 exits via RR1 instead of RR2: wrong, but still loop-free.
			in.best[bad] = append([]bgp.PathID(nil), in.best[bad]...)
			in.best[bad][c1] = r1
		}, "reconverged"},
		{"withdrawn route retained", func(in *input, bad uint32) {
			// r2 is withdrawn and everyone moved to r1, but c2 still holds
			// r2 as a candidate — and announces it, which the model, reading
			// only live paths, does not see.
			onlyR1(in, bad)
			in.possible[bad][c2] = bgp.NewPathSet(r1, r2)
			in.announced[bad][c2] = in.possible[bad][c2]
		}, "flushed"},
		{"forwarding loop", func(in *input, bad uint32) {
			// The classic protocol's own fixed point on Figure 14: it is
			// what classic re-converges to, and c1 and c2 forward through
			// each other. Graded under Classic, a healthy sibling prefix
			// needs a classic stable solution too.
			s := msgsim.New(f.Sys, protocol.Classic, selection.Options{}, msgsim.ConstantDelay(1))
			s.InjectAll()
			s.Run(0)
			dom := map[uint32]*topology.System{0: f.Sys}
			in.policy = protocol.Classic
			in.best[bad], in.possible[bad], in.announced[bad] =
				Vectors(dom, s.BestFor)[0], Vectors(dom, s.PossibleFor)[0], Vectors(dom, s.AnnouncedFor)[0]
			for p := range in.live {
				if p != bad {
					onlyR1(in, p)
				}
			}
		}, "loop-free"},
		{"ledger open", func(in *input, _ uint32) { in.counters.Sent++ }, "ledger"},
		{"not quiesced", func(in *input, _ uint32) { in.quiesced = false }, "quiesced"},
	}
	for _, prefixes := range []uint32{1, 2} {
		systems := map[uint32]*topology.System{}
		live := map[uint32]bgp.PathSet{}
		for p := uint32(0); p < prefixes; p++ {
			systems[p], live[p] = f.Sys, f.Sys.AllExitSet()
		}
		s := msgsim.NewMulti(systems, protocol.Modified, selection.Options{}, msgsim.MustRandomDelay(3, 1, 9))
		s.InjectAll()
		quiesced := s.Run(0).Quiesced
		bad := prefixes - 1
		for _, tc := range cases {
			in := input{
				policy: protocol.Modified, best: Vectors(systems, s.BestFor), live: maps.Clone(live),
				possible: Vectors(systems, s.PossibleFor), announced: Vectors(systems, s.AnnouncedFor),
				counters: s.Counters(), quiesced: quiesced,
			}
			tc.mutate(&in, bad)
			got, _ := Grade(systems, in.policy, selection.Options{}, in.live, in.best, in.possible, in.announced,
				in.counters, in.quiesced)
			name := fmt.Sprintf("%d prefixes, %s", prefixes, tc.name)
			five := map[string]bool{
				"quiesced": got.Quiesced, "reconverged": got.Reconverged(), "flushed": got.WithdrawnFlushed(),
				"loop-free": got.LoopFree(), "ledger": got.LedgerClosed,
			}
			for verdict, held := range five {
				if held == (verdict == tc.fails) {
					t.Errorf("%s: verdict %q = %v (all five: %v)", name, verdict, held, five)
				}
			}
			if got.OK() != (tc.fails == "") {
				t.Errorf("%s: OK() = %v", name, got.OK())
			}
			// The evidence names exactly the bad prefix and the culprit.
			wantDiverged, wantStale, wantLooping := map[uint32]bgp.NodeID{}, map[uint32][]bgp.PathSet{}, map[uint32]bool{}
			if tc.fails == "reconverged" {
				wantDiverged[bad] = c1
			}
			if tc.fails == "flushed" {
				wantStale[bad] = make([]bgp.PathSet, f.Sys.N())
				wantStale[bad][c2] = bgp.NewPathSet(r2)
			}
			if tc.fails == "loop-free" {
				wantLooping[bad] = true
			}
			if !reflect.DeepEqual(got.Diverged, wantDiverged) || !reflect.DeepEqual(got.Looping, wantLooping) ||
				fmt.Sprint(got.Stale) != fmt.Sprint(wantStale) {
				t.Errorf("%s: evidence diverged=%v stale=%v looping=%v, want %v %v %v", name,
					got.Diverged, got.Stale, got.Looping, wantDiverged, wantStale, wantLooping)
			}
		}
	}
}

// TestCoReflectorWitnesses pins the co-reflector divergence (DESIGN.md §5).
// On these generated prefixes the shipped router settles, under
// constant delay, in a state that is not a stable solution of the paper's
// model: at one core reflector the router and the model hold the same
// candidates and pick a different best, because the router attributes a
// route to an advertiser that Transfer prunes. A second msgsim run lands on
// the same state, which is why grading against a second run never saw it.
// When the announcement rules are reconciled this expectation flips.
func TestCoReflectorWitnesses(t *testing.T) {
	for _, w := range []struct {
		seed        int64
		prefix      uint32
		policy      protocol.Policy
		router      string
		best, model bgp.PathID
	}{
		{6, 14, protocol.Modified, "core0-1", 8, 14},
		{8, 14, protocol.Modified, "core1-0", 1, 11},
		{10, 14, protocol.Modified, "core0-1", 8, 14},
		{2, 4, protocol.Classic, "core1-1", 9, 3},
	} {
		spec := topogen.Default()
		spec.Prefixes = 16
		ts, err := topogen.Generate(spec, w.seed)
		if err != nil {
			t.Fatal(err)
		}
		systems, err := topology.BuildSpecAll(ts)
		if err != nil {
			t.Fatal(err)
		}
		// A single-prefix simulator carries its system as prefix 0.
		sys := systems[w.prefix]
		dom := map[uint32]*topology.System{0: sys}
		run := func() *msgsim.Sim {
			s := msgsim.New(sys, w.policy, selection.Options{}, msgsim.ConstantDelay(1))
			s.InjectAll()
			if !s.Run(0).Quiesced {
				t.Fatalf("seed %d prefix %d: %v did not quiesce", w.seed, w.prefix, w.policy)
			}
			return s
		}
		s, again := run(), run()
		best := Vectors(dom, s.BestFor)[0]
		if !slices.Equal(best, Vectors(dom, again.BestFor)[0]) {
			t.Errorf("seed %d prefix %d: a second msgsim run settles elsewhere", w.seed, w.prefix)
		}
		model, diverged := FixedPoint(dom, w.policy, selection.Options{},
			map[uint32]bgp.PathSet{0: sys.AllExitSet()}, Vectors(dom, s.BestFor), Vectors(dom, s.AnnouncedFor))
		want := fmt.Sprintf("router %s best p%d, model p%d", w.router, w.best, w.model)
		u, ok := diverged[0]
		if !ok {
			t.Errorf("seed %d prefix %d (%v): the settled state is a stable solution, want %s; has the co-reflector rule been reconciled?",
				w.seed, w.prefix, w.policy, want)
			continue
		}
		if got := fmt.Sprintf("router %s best p%d, model p%d", sys.Name(u), best[u], model[0][u]); got != want {
			t.Errorf("seed %d prefix %d (%v): %s, want %s", w.seed, w.prefix, w.policy, got, want)
		}
	}
}

// TestCoReflectorFixture pins the smallest co-reflector divergence
// (testdata/coreflector3.json): co-reflectors r0_0 and r0_1 of one cluster,
// client c0_0 below r0_0, exit p0 at c0_0 and exit p1 at r0_1. Under
// Modified and Walton the router settles with r0_0 on p0 where the model,
// from the same advertisements, picks p1; every Modified run lands there —
// constant delay, five random-delay draws and the TCP speakers. Under
// Classic the settled state is a stable solution of the model. When the
// announcement rules are reconciled this expectation flips, as
// TestCoReflectorWitnesses's does.
func TestCoReflectorFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "coreflector3.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := topology.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	paths := func(ids []bgp.PathID) string {
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = fmt.Sprintf("p%d", id)
		}
		return "[" + strings.Join(names, " ") + "]"
	}
	for _, tc := range []struct {
		policy         protocol.Policy
		diverged, best string
	}{
		{protocol.Modified, "router r0_0 best p0, model p1", "[p0 p1 p0]"},
		{protocol.Walton, "router r0_0 best p0, model p1", "[p0 p1 p0]"},
		{protocol.Classic, "", "[p1 p1 p0]"},
	} {
		rep, err := CheckSim(sys, Config{Policy: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		if u, ok := rep.Diverged[0]; ok {
			got = fmt.Sprintf("router %s best p%d, model p%d", sys.Name(u), rep.Best[u], rep.Reference[u])
		}
		if !rep.Quiesced || got != tc.diverged || paths(rep.Best) != tc.best {
			t.Errorf("%v: quiesced %v, best %s, divergence %q; want best %s, divergence %q",
				tc.policy, rep.Quiesced, paths(rep.Best), got, tc.best, tc.diverged)
		}
		if tc.diverged == "" && paths(rep.Reference) != tc.best {
			t.Errorf("%v: model best %s, want %s", tc.policy, paths(rep.Reference), tc.best)
		}
	}
	check := func(name string, rep Report, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Quiesced || paths(rep.Best) != "[p0 p1 p0]" {
			t.Errorf("Modified %s: quiesced %v, best %s, want [p0 p1 p0]", name, rep.Quiesced, paths(rep.Best))
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		rep, err := CheckSim(sys, Config{Policy: protocol.Modified, DelaySeed: seed})
		check(fmt.Sprintf("random delay seed %d", seed), rep, err)
	}
	rep, err := checkTCP(sys, Config{Policy: protocol.Modified})
	check("TCP", rep, err)
}

// coldReference is the oracle FixedPoint replaced, kept here as its
// cross-check: a cold constant-delay msgsim convergence with every exit
// announced, whose best vector Lemma 7.4 makes the one every Modified run
// must settle in.
func coldReference(t *testing.T, systems map[uint32]*topology.System) map[uint32][]bgp.PathID {
	t.Helper()
	s := msgsim.NewMulti(systems, protocol.Modified, selection.Options{}, msgsim.ConstantDelay(1))
	s.InjectAll()
	if !s.Run(0).Quiesced {
		t.Fatal("cold reference did not quiesce")
	}
	return Vectors(systems, s.BestFor)
}

// TestFixedPointMatchesColdReference: under Modified the predicate is never
// weaker than the cold reference run it replaced, nor stronger. On every
// paper figure and on 16 prefixes of ten Small() seeds, a faulted
// random-delay run is graded both ways — as settled, and with one router's
// best route moved on every other prefix — and the two must flag exactly
// the same prefixes.
func TestFixedPointMatchesColdReference(t *testing.T) {
	domains := map[string]map[uint32]*topology.System{}
	for _, e := range figures.All() {
		domains["Fig"+e.Name] = map[uint32]*topology.System{0: e.Build().Sys}
	}
	spec := topogen.Small()
	spec.Prefixes = 16
	for seed := int64(1); seed <= 10; seed++ {
		ts, err := topogen.Generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		systems, err := topology.BuildSpecAll(ts)
		if err != nil {
			t.Fatal(err)
		}
		dom := map[uint32]*topology.System{}
		for i, sys := range systems {
			dom[uint32(i)] = sys
		}
		domains[fmt.Sprintf("Small seed %d", seed)] = dom
	}
	flagged := 0
	for name, dom := range domains {
		ref := coldReference(t, dom)
		n := dom[0].N()
		plan, err := faults.RandomPlan(7, n, faults.RandomConfig{
			Drop: 0.1, Duplicate: 0.05, Reorder: 0.05, Delay: 0.2, MaxExtraDelay: 15, Resets: 1, Horizon: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := msgsim.NewMulti(dom, protocol.Modified, selection.Options{}, msgsim.MustRandomDelay(int64(n), 1, 10))
		if err := s.SetFaults(plan); err != nil {
			t.Fatal(err)
		}
		s.InjectAll()
		if !s.Run(1_000_000).Quiesced {
			t.Fatalf("%s: did not quiesce", name)
		}
		live := map[uint32]bgp.PathSet{}
		for prefix, sys := range dom {
			live[prefix] = sys.AllExitSet()
		}
		best, announced := Vectors(dom, s.BestFor), Vectors(dom, s.AnnouncedFor)
		moved := maps.Clone(best)
		for prefix := range moved {
			if prefix%2 == 1 {
				u := int(prefix) % n
				moved[prefix] = slices.Clone(best[prefix])
				moved[prefix][u] = bgp.None
				if best[prefix][u] == bgp.None {
					moved[prefix][u] = 0
				}
			}
		}
		for _, b := range []map[uint32][]bgp.PathID{best, moved} {
			_, diverged := FixedPoint(dom, protocol.Modified, selection.Options{}, live, b, announced)
			for prefix := range dom {
				_, got := diverged[prefix]
				want := !slices.Equal(b[prefix], ref[prefix])
				if got != want {
					t.Errorf("%s prefix %d: predicate flags %v, cold reference %v (best %v, reference %v)",
						name, prefix, got, want, b[prefix], ref[prefix])
				}
				if got {
					flagged++
				}
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no prefix flagged: the moved best routes went unseen")
	}
}

// TestFixedPointAcceptsEveryClassicStableSolution: under Classic a settled
// state may be any stable solution, and the predicate must accept each.
// Figure 3 has two once its r1 flash is over.
func TestFixedPointAcceptsEveryClassicStableSolution(t *testing.T) {
	f := figures.Fig3()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	e.Withdraw(f.Path("r1"))
	sols := explore.EnumerateStableClassic(e, 0).Solutions
	if len(sols) != 2 {
		t.Fatalf("Fig3 without r1 has %d classic stable solutions, want 2", len(sols))
	}
	dom := map[uint32]*topology.System{0: f.Sys}
	exits := f.Sys.AllExitSet()
	exits.Remove(f.Path("r1"))
	live := map[uint32]bgp.PathSet{0: exits}
	for _, sol := range sols {
		model, diverged := FixedPoint(dom, protocol.Classic, selection.Options{}, live,
			map[uint32][]bgp.PathID{0: sol.Best}, map[uint32][]bgp.PathSet{0: sol.Advertised})
		if len(diverged) != 0 {
			t.Errorf("stable solution %v rejected: model %v", sol.Best, model[0])
		}
	}
}
