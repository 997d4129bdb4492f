package protocol

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/selection"
	"repro/internal/topology"
)

// deepSystem builds a three-level hierarchy with two top-level branches:
//
//	K0 {T0} ── K1 {M0, mc0} ── K2 {L0, lc0 (exit pa, AS 1)}
//	K3 {T1} ── K4 {M1}       ── K5 {L1, lc1 (exit pb, AS 2)}
//
// All links cost 1 except the deep client links.
func deepSystem(t *testing.T) (*topology.System, map[string]bgp.NodeID, map[string]bgp.PathID) {
	t.Helper()
	b := topology.NewBuilder()
	k0 := b.NewCluster()
	k1 := b.SubCluster(k0)
	k2 := b.SubCluster(k1)
	k3 := b.NewCluster()
	k4 := b.SubCluster(k3)
	k5 := b.SubCluster(k4)
	T0 := b.Reflector("T0", k0)
	M0 := b.Reflector("M0", k1)
	mc0 := b.Client("mc0", k1)
	L0 := b.Reflector("L0", k2)
	lc0 := b.Client("lc0", k2)
	T1 := b.Reflector("T1", k3)
	M1 := b.Reflector("M1", k4)
	L1 := b.Reflector("L1", k5)
	lc1 := b.Client("lc1", k5)
	b.Link(T0, M0, 1).Link(M0, mc0, 1).Link(M0, L0, 1).Link(L0, lc0, 2)
	b.Link(T0, T1, 1).Link(T1, M1, 1).Link(M1, L1, 1).Link(L1, lc1, 2)
	pa := b.Exit(lc0, topology.ExitSpec{NextAS: 1, MED: 0})
	pb := b.Exit(lc1, topology.ExitSpec{NextAS: 2, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys,
		map[string]bgp.NodeID{"T0": T0, "M0": M0, "mc0": mc0, "L0": L0, "lc0": lc0,
			"T1": T1, "M1": M1, "L1": L1, "lc1": lc1},
		map[string]bgp.PathID{"pa": pa, "pb": pb}
}

func TestDeepHierarchyPropagation(t *testing.T) {
	sys, n, p := deepSystem(t)

	// Classic: every router gets *a* route, but the far branch's route is
	// hidden behind each top reflector's single best — route hiding works
	// at depth exactly as at two levels.
	e := New(sys, Classic, selection.Options{})
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 2000})
	if res.Outcome != Converged {
		t.Fatalf("classic outcome %v", res.Outcome)
	}
	for u := 0; u < sys.N(); u++ {
		if res.Final.Best[u] == bgp.None {
			t.Fatalf("node %d ended without a route", u)
		}
	}
	if e.PossibleExits(n["lc1"]).Contains(p["pa"]) {
		t.Fatal("classic should hide the far branch's route behind T1's best")
	}

	// Modified: the survivor set climbs the branch, crosses the top mesh
	// and descends the other branch — five reflection hops (Lemma 7.5 at
	// depth).
	m := New(sys, Modified, selection.Options{})
	mres := Run(m, RoundRobin(sys.N()), RunOptions{MaxSteps: 2000})
	if mres.Outcome != Converged {
		t.Fatalf("modified outcome %v", mres.Outcome)
	}
	if !m.PossibleExits(n["lc1"]).Contains(p["pa"]) {
		t.Fatalf("pa did not reach the far deep client: %v", m.PossibleExits(n["lc1"]))
	}
	if !m.PossibleExits(n["lc0"]).Contains(p["pb"]) {
		t.Fatalf("pb did not reach the far deep client: %v", m.PossibleExits(n["lc0"]))
	}
}

func TestDeepHierarchyModifiedDeterministic(t *testing.T) {
	sys, _, _ := deepSystem(t)
	e := New(sys, Modified, selection.Options{})
	base := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 2000})
	if base.Outcome != Converged {
		t.Fatalf("outcome %v", base.Outcome)
	}
	for i, r := range RunSeeds(e, 8, 2000) {
		if r.Outcome != Converged || !r.Final.Equal(base.Final) {
			t.Fatalf("seed %d: modified protocol schedule-dependent at depth 3", i)
		}
	}
	// Everyone ends with the full survivor set.
	for u, good := range base.Final.Advertised {
		if good.Len() != 2 {
			t.Fatalf("node %d GoodExits = %v, want both paths", u, good)
		}
	}
}

func TestDeepHierarchyFlush(t *testing.T) {
	// Lemma 7.2 at depth: a withdrawal at the bottom of one branch is
	// flushed from the bottom of the other within a few fair rounds.
	sys, n, p := deepSystem(t)
	e := New(sys, Modified, selection.Options{})
	Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 2000})
	if !e.PossibleExits(n["lc1"]).Contains(p["pa"]) {
		t.Fatal("precondition failed")
	}
	e.Withdraw(p["pa"])
	rounds := 0
	for !e.Valid() && rounds < 10 {
		for u := 0; u < sys.N(); u++ {
			e.Activate(bgp.NodeID(u))
		}
		rounds++
	}
	if !e.Valid() {
		t.Fatal("withdrawn deep route never flushed")
	}
	// Depth 3 means up to 5 announcement hops; round-robin in node order
	// may need one round per hop.
	if rounds > 6 {
		t.Fatalf("flush took %d rounds", rounds)
	}
	if e.PossibleExits(n["lc1"]).Contains(p["pa"]) {
		t.Fatal("stale deep route survived")
	}
}

func TestDeepHierarchyCrashRecovery(t *testing.T) {
	// Restarting the middle reflector of a branch loses its state; the
	// modified protocol relearns and returns to the identical outcome.
	sys, n, _ := deepSystem(t)
	e := New(sys, Modified, selection.Options{})
	base := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 2000})
	e.ResetNode(n["M0"])
	if e.PossibleExits(n["M0"]).Len() != 0 {
		t.Fatal("reset middle reflector kept state")
	}
	res := Run(e, PermutationRounds(sys.N(), 5), RunOptions{MaxSteps: 2000})
	if res.Outcome != Converged || !res.Final.Equal(base.Final) {
		t.Fatal("crash recovery changed the outcome")
	}
}
