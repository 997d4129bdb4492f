package protocol

import (
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/selection"
	"repro/internal/topology"
)

// miniSystem: cluster 0 = {R (reflector), c (client)}, cluster 1 = {S
// (reflector)}; exits at c and at S through different ASes.
func miniSystem(t *testing.T) (*topology.System, map[string]bgp.NodeID, map[string]bgp.PathID) {
	t.Helper()
	b := topology.NewBuilder()
	k0 := b.NewCluster()
	k1 := b.NewCluster()
	R := b.Reflector("R", k0)
	c := b.Client("c", k0)
	S := b.Reflector("S", k1)
	b.Link(R, c, 1).Link(R, S, 1)
	pc := b.Exit(c, topology.ExitSpec{NextAS: 1, MED: 0})
	ps := b.Exit(S, topology.ExitSpec{NextAS: 2, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys,
		map[string]bgp.NodeID{"R": R, "c": c, "S": S},
		map[string]bgp.PathID{"pc": pc, "ps": ps}
}

func TestInitialConfiguration(t *testing.T) {
	sys, n, p := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	// PossibleExits(u, 0) = MyExits(u).
	if !e.PossibleExits(n["c"]).Equal(bgp.NewPathSet(p["pc"])) {
		t.Fatalf("possible(c) = %v", e.PossibleExits(n["c"]))
	}
	if e.PossibleExits(n["R"]).Len() != 0 {
		t.Fatalf("possible(R) = %v, want empty", e.PossibleExits(n["R"]))
	}
	if e.best[n["c"]] != p["pc"] || e.best[n["R"]] != bgp.None {
		t.Fatal("initial best routes wrong")
	}
	// Initial advertisement: own best.
	if !e.Advertised(n["c"]).Equal(bgp.NewPathSet(p["pc"])) {
		t.Fatal("client must advertise its own exit initially")
	}
}

func TestActivationPropagation(t *testing.T) {
	sys, n, p := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	// Activate R: it hears pc from c and ps from S.
	if !e.Activate(n["R"]) {
		t.Fatal("first activation of R must change its state")
	}
	want := bgp.NewPathSet(p["pc"], p["ps"])
	if !e.PossibleExits(n["R"]).Equal(want) {
		t.Fatalf("possible(R) = %v, want %v", e.PossibleExits(n["R"]), want)
	}
	// Metric: pc at distance 1, ps at distance 1 with equal attributes;
	// tie breaks on learnedFrom = BGP id (c=1001 < S=1002).
	if e.best[n["R"]] != p["pc"] {
		t.Fatalf("best(R) = p%d, want pc", e.best[n["R"]])
	}
	r, ok := e.bestRoute(n["R"])
	if !ok || r.Metric != 1 || r.EBGP() {
		t.Fatalf("BestRoute(R) = %+v, %v", r, ok)
	}
	// Second activation with unchanged surroundings: no change.
	if e.Activate(n["R"]) {
		t.Fatal("repeat activation changed state")
	}
}

func TestTransferRulesAppliedOnGather(t *testing.T) {
	sys, n, p := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	e.Activate(n["R"])
	e.Activate(n["S"])
	// S must have received pc from R (case 2: pc exits at R's client).
	if !e.PossibleExits(n["S"]).Contains(p["pc"]) {
		t.Fatal("S did not receive client route via reflection")
	}
	// S prefers its own E-BGP route.
	if e.best[n["S"]] != p["ps"] {
		t.Fatalf("best(S) = p%d, want ps", e.best[n["S"]])
	}
	e.Activate(n["c"])
	// c hears R's best (pc is c's own, so R's advertisement of pc is not
	// echoed; R's best is pc so c gets nothing new).
	if !e.PossibleExits(n["c"]).Equal(bgp.NewPathSet(p["pc"])) {
		t.Fatalf("possible(c) = %v", e.PossibleExits(n["c"]))
	}
}

func TestConvergenceAndStability(t *testing.T) {
	sys, _, _ := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 100})
	if res.Outcome != Converged {
		t.Fatalf("outcome = %v, want converged", res.Outcome)
	}
	if !e.Stable() {
		t.Fatal("engine not stable after convergence")
	}
	if !e.Valid() {
		t.Fatal("configuration invalid after convergence")
	}
}

func TestModifiedAdvertisesSurvivors(t *testing.T) {
	sys, n, p := miniSystem(t)
	e := New(sys, Modified, selection.Options{})
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 100})
	if res.Outcome != Converged {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Both paths survive Choose^B (different ASes), so R advertises both.
	want := bgp.NewPathSet(p["pc"], p["ps"])
	if !e.Advertised(n["R"]).Equal(want) {
		t.Fatalf("advertised(R) = %v, want %v", e.Advertised(n["R"]), want)
	}
	// The client sees every survivor except its own echo.
	if !e.PossibleExits(n["c"]).Equal(want) {
		t.Fatalf("possible(c) = %v, want %v", e.PossibleExits(n["c"]), want)
	}
}

func TestWithdrawFlushes(t *testing.T) {
	// Lemma 7.2: after an E-BGP withdrawal, the path disappears from every
	// PossibleExits within a bounded number of fair rounds.
	sys, n, p := miniSystem(t)
	for _, policy := range []Policy{Classic, Walton, Modified} {
		e := New(sys, policy, selection.Options{})
		Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 100})
		if !e.PossibleExits(n["S"]).Contains(p["pc"]) {
			t.Fatalf("%v: precondition failed: S lacks pc", policy)
		}
		e.Withdraw(p["pc"])
		if e.Valid() {
			t.Fatalf("%v: configuration should be invalid right after withdrawal", policy)
		}
		res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 200})
		if res.Outcome != Converged {
			t.Fatalf("%v: outcome = %v after withdrawal", policy, res.Outcome)
		}
		if !e.Valid() {
			t.Fatalf("%v: stale path not flushed", policy)
		}
		for _, name := range []string{"R", "c", "S"} {
			if e.PossibleExits(n[name]).Contains(p["pc"]) {
				t.Fatalf("%v: %s still holds withdrawn path", policy, name)
			}
		}
		// Restore and re-run: the path returns everywhere.
		e.Restore(p["pc"])
		e.ResetNode(n["c"])
		res = Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 200})
		if res.Outcome != Converged || !e.PossibleExits(n["S"]).Contains(p["pc"]) {
			t.Fatalf("%v: restore did not propagate", policy)
		}
	}
}

func TestResetNodeLosesLearnedState(t *testing.T) {
	sys, n, p := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 100})
	if !e.PossibleExits(n["R"]).Contains(p["ps"]) {
		t.Fatal("precondition: R lacks ps")
	}
	e.ResetNode(n["R"])
	if e.PossibleExits(n["R"]).Contains(p["ps"]) {
		t.Fatal("reset node retained learned path")
	}
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 100})
	if res.Outcome != Converged || !e.PossibleExits(n["R"]).Contains(p["ps"]) {
		t.Fatal("restarted node did not relearn")
	}
}

func TestSimultaneousActivationUsesOldAdvertisements(t *testing.T) {
	sys, n, p := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	// Activating {R, S} together: S must not see pc, because R's
	// advertisement of pc only appears after this step.
	e.ActivateSet([]bgp.NodeID{n["R"], n["S"]})
	if e.PossibleExits(n["S"]).Contains(p["pc"]) {
		t.Fatal("simultaneous activation leaked same-step advertisement")
	}
	// Next step it arrives.
	e.Activate(n["S"])
	if !e.PossibleExits(n["S"]).Contains(p["pc"]) {
		t.Fatal("pc did not arrive on the following step")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	sys, n, _ := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	e.Activate(n["R"])
	var snap, got Snapshot
	e.SnapshotInto(&snap)
	words := e.EncodeState(nil)
	e.Activate(n["S"])
	e.Activate(n["c"])
	e.RestoreFrom(&snap)
	if !slices.Equal(e.EncodeState(nil), words) {
		t.Fatal("RestoreFrom did not restore the encoded state")
	}
	if e.SnapshotInto(&got); !got.Equal(snap) {
		t.Fatal("snapshot not equal after restore")
	}
}

func TestSnapshotEqualAndBestEqual(t *testing.T) {
	sys, n, _ := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	var s1, s2, s3 Snapshot
	e.SnapshotInto(&s1)
	e.Activate(n["R"])
	e.SnapshotInto(&s2)
	if s1.Equal(s2) {
		t.Fatal("distinct snapshots compare equal")
	}
	if s1.BestEqual(s2) {
		t.Fatal("best routes should differ after R learns routes")
	}
	if e.SnapshotInto(&s3); !s2.Equal(s3) {
		t.Fatal("snapshot not stable")
	}
	if s2.String() == "" || s1.String() == "" {
		t.Fatal("empty snapshot String")
	}
}

func TestObserverSeesEvents(t *testing.T) {
	sys, n, _ := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	var events []Event
	e.Observe(func(ev Event) { events = append(events, ev) })
	e.Activate(n["R"])
	if len(events) != 1 {
		t.Fatalf("observer saw %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Node != n["R"] || ev.OldBest != bgp.None || ev.NewBest == bgp.None {
		t.Fatalf("event = %+v", ev)
	}
}

func TestRunCountsChangesAndMessages(t *testing.T) {
	sys, _, _ := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 100})
	if res.BestChanges == 0 {
		t.Fatal("convergence from cold start should change at least one best route")
	}
	if res.Messages == 0 {
		t.Fatal("no messages counted")
	}
	if res.Steps == 0 {
		t.Fatal("no steps counted")
	}
	// Re-running on the converged engine terminates immediately.
	res2 := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 100})
	if res2.Outcome != Converged || res2.Steps != 0 {
		t.Fatalf("re-run on stable engine: %+v", res2)
	}
}

func TestRunSeedsDeterministicForModified(t *testing.T) {
	sys, _, _ := miniSystem(t)
	e := New(sys, Modified, selection.Options{})
	results := RunSeeds(e, 10, 1000)
	for i, r := range results {
		if r.Outcome != Converged {
			t.Fatalf("seed %d: outcome %v", i, r.Outcome)
		}
		if !r.Final.BestEqual(results[0].Final) {
			t.Fatalf("seed %d converged to a different configuration", i)
		}
	}
}

func TestSchedules(t *testing.T) {
	t.Run("round robin covers all", func(t *testing.T) {
		s := RoundRobin(3)
		seen := map[bgp.NodeID]int{}
		for i := 0; i < 6; i++ {
			for _, u := range s.Next() {
				seen[u]++
			}
		}
		for u := bgp.NodeID(0); u < 3; u++ {
			if seen[u] != 2 {
				t.Fatalf("node %d activated %d times, want 2", u, seen[u])
			}
		}
		if s.Period() != 3 {
			t.Fatalf("period = %d", s.Period())
		}
	})
	t.Run("all at once", func(t *testing.T) {
		s := AllAtOnce(4)
		if len(s.Next()) != 4 || s.Period() != 1 {
			t.Fatal("AllAtOnce shape wrong")
		}
	})
	t.Run("permutation rounds fair", func(t *testing.T) {
		s := PermutationRounds(5, 42)
		seen := map[bgp.NodeID]int{}
		for i := 0; i < 15; i++ {
			for _, u := range s.Next() {
				seen[u]++
			}
		}
		for u := bgp.NodeID(0); u < 5; u++ {
			if seen[u] != 3 {
				t.Fatalf("node %d activated %d times, want 3", u, seen[u])
			}
		}
	})
	t.Run("subset rounds fair per round", func(t *testing.T) {
		s := SubsetRounds(5, 7)
		// Consume many sets; every node must keep appearing.
		seen := map[bgp.NodeID]int{}
		for i := 0; i < 100; i++ {
			for _, u := range s.Next() {
				seen[u]++
			}
		}
		for u := bgp.NodeID(0); u < 5; u++ {
			if seen[u] == 0 {
				t.Fatalf("node %d never activated", u)
			}
		}
	})
	t.Run("fixed replays", func(t *testing.T) {
		s := Fixed([]bgp.NodeID{0}, []bgp.NodeID{1, 2})
		if got := s.Next(); len(got) != 1 || got[0] != 0 {
			t.Fatalf("first = %v", got)
		}
		if got := s.Next(); len(got) != 2 {
			t.Fatalf("second = %v", got)
		}
		if got := s.Next(); len(got) != 1 || got[0] != 0 {
			t.Fatalf("wrap = %v", got)
		}
		if s.Period() != 2 {
			t.Fatalf("period = %d", s.Period())
		}
	})
}

func TestPolicyAndOutcomeStrings(t *testing.T) {
	if Classic.String() != "classic" || Walton.String() != "walton" || Modified.String() != "modified" {
		t.Fatal("Policy.String wrong")
	}
	if Converged.String() != "converged" || Cycled.String() != "cycled" || Exhausted.String() != "exhausted" {
		t.Fatal("Outcome.String wrong")
	}
	if Policy(99).String() == "" || Outcome(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

func TestInducedConfigFixedPoint(t *testing.T) {
	sys, _, _ := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 100})
	if res.Outcome != Converged {
		t.Fatal("setup failed")
	}
	// The converged advertisement assignment is a fixed point.
	adv := make([]bgp.PathSet, sys.N())
	for u := 0; u < sys.N(); u++ {
		adv[u] = e.Advertised(bgp.NodeID(u))
	}
	e2 := New(sys, Classic, selection.Options{})
	if !e2.InducedConfig(adv) {
		t.Fatal("converged advertisements not recognised as a fixed point")
	}
	// A nonsense assignment is not.
	bad := make([]bgp.PathSet, sys.N())
	for u := range bad {
		bad[u] = bgp.PathSet{}
	}
	if e2.InducedConfig(bad) {
		t.Fatal("empty advertisements accepted as fixed point despite exits existing")
	}
}

func TestReceivablePaths(t *testing.T) {
	sys, n, p := miniSystem(t)
	e := New(sys, Classic, selection.Options{})
	// R can receive everything.
	r := e.ReceivablePaths(n["R"])
	if !r.Contains(p["pc"]) || !r.Contains(p["ps"]) {
		t.Fatalf("ReceivablePaths(R) = %v", r)
	}
	// c can receive ps (via R) and holds pc itself.
	c := e.ReceivablePaths(n["c"])
	if !c.Contains(p["pc"]) || !c.Contains(p["ps"]) {
		t.Fatalf("ReceivablePaths(c) = %v", c)
	}
}
