package chaos

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/workload"
)

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
				t.Fatalf("%s seed %d (%q): %s", fig.name, seed, plan, rep.Explain())
			}
		}
	}
}

// TestCheckSimWithdrawUnderFaults: an E-BGP withdrawal racing drops and a
// session reset must still flush the route from every candidate set.
func TestCheckSimWithdrawUnderFaults(t *testing.T) {
	f := figures.Fig14()
	u := bgp.NodeID(0)
	w := f.Sys.Peers(u)[0]
	rep, err := CheckSim(f.Sys, Config{
		Policy: protocol.Modified,
		Plan: &faults.Plan{
			Seed: 9, Drop: 0.2, Delay: 0.3, MaxExtraDelay: 10,
			Resets:  []faults.Reset{{A: u, B: w, At: 60, Downtime: 50}},
			Horizon: 800,
		},
		Withdraw:   []bgp.PathID{f.Path("r2")},
		WithdrawAt: 40,
		DelaySeed:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal(rep.Explain())
	}
	if rep.Counters.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", rep.Counters.Resets)
	}
}

// TestClassicPathologiesSurviveFaults: fault injection must not mask the
// paper's pathologies. Figure 1(a) has no stable configuration under
// classic I-BGP — it must keep oscillating, faults or none. Figure 3 is
// the timing-dependence example: it has two stable solutions, and which
// one classic I-BGP lands on must still vary with timing when fault
// schedules perturb the message orderings.
func TestClassicPathologiesSurviveFaults(t *testing.T) {
	plan := &faults.Plan{Seed: 4, Drop: 0.05, Delay: 0.2, MaxExtraDelay: 8, Horizon: 300}
	osc, err := Oscillates(figures.Fig1a().Sys, Config{
		Policy: protocol.Classic, Plan: plan, DelaySeed: 11, MaxEvents: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !osc {
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
			s.InjectAt(0, f3.Path(name))
		}
		s.InjectAt(0, f3.Path("r1"))
		s.WithdrawAt(60, f3.Path("r1"))
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

// TestReferenceRejectsOscillators: asking for a reference configuration of
// a policy with none is an error, not a hang.
func TestReferenceRejectsOscillators(t *testing.T) {
	f := figures.Fig1a()
	systems, live := Config{}.domain(f.Sys)
	if _, err := Reference(systems, protocol.Classic, selection.Options{}, live, 10000); err == nil {
		t.Fatal("classic Fig1a produced a reference configuration")
	}
}

// TestCheckTCPModifiedWithReset: the same invariants over real TCP
// sessions, including a genuine connection teardown and redial.
func TestCheckTCPModifiedWithReset(t *testing.T) {
	f := figures.Fig1a()
	u := bgp.NodeID(0)
	w := f.Sys.Peers(u)[0]
	rep, err := CheckTCP(f.Sys, Config{
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
		t.Fatal(rep.Explain())
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
					seed, i, rep.Explain(), rep.Best, rep.Reference)
			}
		}
	}
}

// TestGradeFlagsEachInvariant proves the oracle can say no. Starting from a
// genuinely settled Figure 14 run under the modified protocol — which must
// pass — each case breaks exactly one invariant on the last prefix of the
// domain, and Grade must fail that verdict, hold the other four, and name
// the prefix (never its healthy sibling) in the evidence.
func TestGradeFlagsEachInvariant(t *testing.T) {
	f := figures.Fig14()
	c1, c2 := f.Node("c1"), f.Node("c2")
	r1, r2 := f.Path("r1"), f.Path("r2")
	type input struct {
		ref, best map[uint32][]bgp.PathID
		live      map[uint32]bgp.PathSet
		possible  map[uint32][]bgp.PathSet
		counters  router.Snapshot
		quiesced  bool
	}
	uniform := func(id bgp.PathID) []bgp.PathID {
		return []bgp.PathID{id, id, id, id}
	}
	cases := []struct {
		name   string
		mutate func(in *input, bad uint32)
		fails  string // the one verdict that must fail, "" for none
	}{
		{"settled", func(*input, uint32) {}, ""},
		{"best off the reference", func(in *input, bad uint32) {
			// c1 exits via RR1 instead of RR2: wrong, but still loop-free.
			in.best[bad] = append([]bgp.PathID(nil), in.best[bad]...)
			in.best[bad][c1] = r1
		}, "reconverged"},
		{"withdrawn route retained", func(in *input, bad uint32) {
			// r2 is withdrawn and everyone moved to r1, but c2 still holds
			// r2 as a candidate.
			in.live[bad] = bgp.NewPathSet(r1)
			in.ref[bad], in.best[bad] = uniform(r1), uniform(r1)
			in.possible[bad] = []bgp.PathSet{in.live[bad], in.live[bad], in.live[bad], in.live[bad]}
			in.possible[bad][c2] = bgp.NewPathSet(r1, r2)
		}, "flushed"},
		{"forwarding loop", func(in *input, bad uint32) {
			// The classic protocol's own fixed point on Figure 14: it is
			// what classic re-converges to, and c1 and c2 forward through
			// each other.
			s := msgsim.New(f.Sys, protocol.Classic, selection.Options{}, msgsim.ConstantDelay(1))
			s.InjectAll()
			classic := s.Run(0).Best
			in.ref[bad], in.best[bad] = classic, classic
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
		ref, err := Reference(systems, protocol.Modified, selection.Options{}, live, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := msgsim.NewMulti(systems, protocol.Modified, selection.Options{}, msgsim.MustRandomDelay(3, 1, 9))
		s.InjectAll()
		quiesced := s.Run(0).Quiesced
		bad := prefixes - 1
		for _, tc := range cases {
			in := input{
				ref: maps.Clone(ref), best: Vectors(systems, s.BestFor),
				live: maps.Clone(live), possible: Vectors(systems, s.PossibleFor),
				counters: s.Counters(), quiesced: quiesced,
			}
			tc.mutate(&in, bad)
			got := Grade(systems, in.ref, in.live, in.best, in.possible, in.counters, in.quiesced)
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
