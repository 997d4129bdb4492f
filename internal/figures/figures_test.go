package figures

import (
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/explore"
	"repro/internal/forwarding"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/workload"
)

// topologyToEqualMED rebuilds a figure's system with every MED zeroed.
func topologyToEqualMED(f *Fig) *topology.System {
	spec := topology.ToSpec(f.Sys)
	for i := range spec.Exits {
		spec.Exits[i].MED = 0
	}
	sys, err := topology.BuildSpec(spec)
	if err != nil {
		panic(err)
	}
	return sys
}

func runAll(t *testing.T, e *protocol.Engine, maxSteps int) protocol.Result {
	t.Helper()
	return protocol.Run(e, protocol.RoundRobin(e.Sys().N()), protocol.RunOptions{MaxSteps: maxSteps})
}

// --- Figure 1(a) -----------------------------------------------------------

// TestFig1aProseRelations re-checks every ordering relation the Section 3
// walk-through asserts about Figure 1(a).
func TestFig1aProseRelations(t *testing.T) {
	f := Fig1a()
	sys := f.Sys
	A, B := f.Node("A"), f.Node("B")
	r1, r2, r3 := sys.Exit(f.Path("r1")), sys.Exit(f.Path("r2")), sys.Exit(f.Path("r3"))

	// "Route reflector A selects r2 (lower IGP metric)".
	if !(sys.Metric(A, r2) < sys.Metric(A, r1)) {
		t.Fatal("A must prefer r2 to r1 on metric")
	}
	// "r3 is better than r2 (lower MED)" — same neighbouring AS.
	if r3.NextAS != r2.NextAS || !(r3.MED < r2.MED) {
		t.Fatal("r3 must MED-dominate r2")
	}
	// r1 goes through a different AS, so MED never touches it.
	if r1.NextAS == r2.NextAS {
		t.Fatal("r1 must use a different neighbouring AS")
	}
	// "r1 is better than r3 (lower IGP metric)" at A.
	if !(sys.Metric(A, r1) < sys.Metric(A, r3)) {
		t.Fatal("A must prefer r1 to r3 on metric")
	}
	// "B ... selects r1 over r3 (lower IGP metric)".
	if !(sys.Metric(B, r1) < sys.Metric(B, r3)) {
		t.Fatal("B must prefer r1 to r3 on metric")
	}
}

// TestFig1aClassicPersistentOscillation proves the headline claim: under
// classic I-BGP the configuration has no stable solution at all, and the
// deterministic schedules cycle forever.
func TestFig1aClassicPersistentOscillation(t *testing.T) {
	f := Fig1a()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})

	res := runAll(t, e, 5000)
	if res.Outcome != protocol.Cycled {
		t.Fatalf("round-robin outcome = %v, want cycled", res.Outcome)
	}

	// Complete enumeration over advertisement assignments: no stable
	// solution exists anywhere in the configuration space.
	enum := explore.EnumerateStableClassic(e, 0)
	if enum.Truncated {
		t.Fatal("enumeration truncated")
	}
	if len(enum.Solutions) != 0 {
		t.Fatalf("found %d stable solutions, paper says none exist", len(enum.Solutions))
	}

	// Exhaustive reachability with full subset activations agrees.
	e2 := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	a := explore.Reachable(e2, explore.Options{Mode: explore.AllSubsets})
	if a.Truncated {
		t.Fatal("reachability truncated")
	}
	if a.Stabilizable() {
		t.Fatal("reachable fixed point found; paper says persistent oscillation")
	}
}

// TestFig1aModifiedConverges: the modified protocol converges, to the same
// configuration, under every schedule, and picks the routes derived in the
// analysis (everyone on r1; b1 keeps its own E-BGP route r3).
func TestFig1aModifiedConverges(t *testing.T) {
	f := Fig1a()
	e := protocol.New(f.Sys, protocol.Modified, selection.Options{})
	res := runAll(t, e, 5000)
	if res.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v, want converged", res.Outcome)
	}
	want := map[string]bgp.PathID{
		"A": f.Path("r1"), "a1": f.Path("r1"), "a2": f.Path("r1"),
		"B": f.Path("r1"), "b1": f.Path("r3"),
	}
	for name, wantPath := range want {
		if got := res.Final.Best[f.Node(name)]; got != wantPath {
			t.Fatalf("%s best = p%d, want p%d", name, got, wantPath)
		}
	}
	// Determinism across schedules.
	for _, r := range protocol.RunSeeds(e, 8, 5000) {
		if r.Outcome != protocol.Converged {
			t.Fatalf("seeded run: outcome %v", r.Outcome)
		}
		if !r.Final.Equal(res.Final) {
			t.Fatal("modified protocol reached a different configuration under another schedule")
		}
	}
	// Every node advertises GoodExits = S' = Choose^B of all exits = {r1, r3}.
	sPrime := bgp.NewPathSet(f.Path("r1"), f.Path("r3"))
	for u := 0; u < f.Sys.N(); u++ {
		if good := res.Final.Advertised[u]; !good.Equal(sPrime) {
			t.Fatalf("GoodExits(v%d) = %v, want %v", u, good, sPrime)
		}
	}
}

// TestFig1aAlwaysCompareMED: the Section 1 mitigation (compare MEDs across
// ASes) also stabilises Figure 1(a), at the cost of changing semantics.
func TestFig1aAlwaysCompareMED(t *testing.T) {
	f := Fig1a()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{MED: selection.AlwaysCompare})
	res := runAll(t, e, 5000)
	if res.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v, want converged under always-compare-med", res.Outcome)
	}
}

// --- Figure 1(b) -----------------------------------------------------------

func TestFig1bConvergesUnderPaperOrder(t *testing.T) {
	f := Fig1b()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{Order: selection.PaperOrder})
	res := runAll(t, e, 5000)
	if res.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v, want converged", res.Outcome)
	}
	// B always prefers its own E-BGP route.
	if got := res.Final.Best[f.Node("B")]; got != f.Path("r3") {
		t.Fatalf("B best = p%d, want r3", got)
	}
	if got := res.Final.Best[f.Node("A")]; got != f.Path("r1") {
		t.Fatalf("A best = p%d, want r1", got)
	}
}

func TestFig1bDivergesUnderRFCOrder(t *testing.T) {
	f := Fig1b()
	opts := selection.Options{Order: selection.RFCOrder}
	e := protocol.New(f.Sys, protocol.Classic, opts)
	res := runAll(t, e, 5000)
	if res.Outcome != protocol.Cycled {
		t.Fatalf("outcome = %v, want cycled under RFC rule order", res.Outcome)
	}
	enum := explore.EnumerateStableClassic(e, 0)
	if enum.Truncated || len(enum.Solutions) != 0 {
		t.Fatalf("stable solutions under RFC order: %d (truncated=%v), want none",
			len(enum.Solutions), enum.Truncated)
	}
	// Note: this happens in a FULL MESH — route reflection is not needed
	// once the rule order changes.
	for u := 0; u < f.Sys.N(); u++ {
		if f.Sys.Role(bgp.NodeID(u)).String() != "reflector" {
			t.Fatal("Fig1b must be fully meshed")
		}
	}
}

// --- Figure 2 --------------------------------------------------------------

func TestFig2SynchronousOscillation(t *testing.T) {
	f := Fig2()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	res := protocol.Run(e, protocol.AllAtOnce(f.Sys.N()), protocol.RunOptions{MaxSteps: 2000})
	if res.Outcome != protocol.Cycled {
		t.Fatalf("synchronous outcome = %v, want cycled", res.Outcome)
	}
}

func TestFig2TwoStableSolutions(t *testing.T) {
	f := Fig2()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	enum := explore.EnumerateStableClassic(e, 0)
	if enum.Truncated {
		t.Fatal("enumeration truncated")
	}
	if len(enum.Solutions) != 2 {
		t.Fatalf("found %d stable solutions, want exactly 2", len(enum.Solutions))
	}
	RR1, RR2 := f.Node("RR1"), f.Node("RR2")
	r1, r2 := f.Path("r1"), f.Path("r2")
	both := map[bgp.PathID]bool{}
	for _, s := range enum.Solutions {
		if s.Best[RR1] != s.Best[RR2] {
			t.Fatalf("stable solution splits the reflectors: %v", s)
		}
		both[s.Best[RR1]] = true
	}
	if !both[r1] || !both[r2] {
		t.Fatalf("stable solutions should be all-r1 and all-r2, got %v", both)
	}
	// Both are reachable (transient outcomes depend on the schedule).
	a := explore.Reachable(e, explore.Options{Mode: explore.AllSubsets})
	if a.Truncated || len(a.FixedPoints) != 2 {
		t.Fatalf("reachable fixed points = %d (truncated %v), want 2", len(a.FixedPoints), a.Truncated)
	}
}

func TestFig2SequentialSchedulesReachEitherSolution(t *testing.T) {
	f := Fig2()
	sys := f.Sys
	RR1, RR2, c1, c2 := f.Node("RR1"), f.Node("RR2"), f.Node("c1"), f.Node("c2")

	// RR1 moves first: the paper's execution reaching the all-r1 solution.
	e := protocol.New(sys, protocol.Classic, selection.Options{})
	sch := protocol.Fixed(
		[]bgp.NodeID{RR1}, []bgp.NodeID{RR2}, []bgp.NodeID{c1}, []bgp.NodeID{c2},
	)
	res := protocol.Run(e, sch, protocol.RunOptions{MaxSteps: 2000})
	if res.Outcome != protocol.Converged {
		t.Fatalf("RR1-first outcome = %v", res.Outcome)
	}
	if res.Final.Best[RR1] != f.Path("r1") || res.Final.Best[RR2] != f.Path("r1") {
		t.Fatalf("RR1-first should land on all-r1, got RR1=p%d RR2=p%d",
			res.Final.Best[RR1], res.Final.Best[RR2])
	}

	// RR2 moves first: the symmetric all-r2 solution.
	e2 := protocol.New(sys, protocol.Classic, selection.Options{})
	sch2 := protocol.Fixed(
		[]bgp.NodeID{RR2}, []bgp.NodeID{RR1}, []bgp.NodeID{c1}, []bgp.NodeID{c2},
	)
	res2 := protocol.Run(e2, sch2, protocol.RunOptions{MaxSteps: 2000})
	if res2.Outcome != protocol.Converged {
		t.Fatalf("RR2-first outcome = %v", res2.Outcome)
	}
	if res2.Final.Best[RR1] != f.Path("r2") || res2.Final.Best[RR2] != f.Path("r2") {
		t.Fatalf("RR2-first should land on all-r2, got RR1=p%d RR2=p%d",
			res2.Final.Best[RR1], res2.Final.Best[RR2])
	}
}

func TestFig2ModifiedDeterministic(t *testing.T) {
	f := Fig2()
	e := protocol.New(f.Sys, protocol.Modified, selection.Options{})
	// Synchronous schedule now converges too.
	res := protocol.Run(e, protocol.AllAtOnce(f.Sys.N()), protocol.RunOptions{MaxSteps: 2000})
	if res.Outcome != protocol.Converged {
		t.Fatalf("modified synchronous outcome = %v", res.Outcome)
	}
	// Every seeded schedule reaches the identical configuration.
	for _, r := range protocol.RunSeeds(e, 12, 2000) {
		if r.Outcome != protocol.Converged || !r.Final.Equal(res.Final) {
			t.Fatal("modified protocol was schedule-dependent on Fig2")
		}
	}
	// The unique outcome: each reflector uses the other's (closer) exit.
	if res.Final.Best[f.Node("RR1")] != f.Path("r2") || res.Final.Best[f.Node("RR2")] != f.Path("r1") {
		t.Fatalf("modified outcome unexpected: %v", res.Final)
	}
	// And it is loop-free (Lemma 7.6).
	plane := forwarding.NewPlane(f.Sys, res.Final)
	if !plane.LoopFree() {
		t.Fatal("modified outcome has a forwarding loop")
	}
}

// --- Figure 3 ---------------------------------------------------------------

func TestFig3TwoStableSolutionsAfterWithdrawal(t *testing.T) {
	f := Fig3()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	e.Withdraw(f.Path("r1"))
	e.ResetAll()
	enum := explore.EnumerateStableClassic(e, 0)
	if enum.Truncated {
		t.Fatal("enumeration truncated")
	}
	if len(enum.Solutions) != 2 {
		t.Fatalf("found %d stable solutions, want 2", len(enum.Solutions))
	}
	B, C := f.Node("B"), f.Node("C")
	type pair struct{ b, c bgp.PathID }
	got := map[pair]bool{}
	for _, s := range enum.Solutions {
		got[pair{s.Best[B], s.Best[C]}] = true
	}
	if !got[pair{f.Path("r3"), f.Path("r6")}] || !got[pair{f.Path("r4"), f.Path("r5")}] {
		t.Fatalf("stable pairs = %v, want {r3,r6} and {r4,r5}", got)
	}
}

func TestFig3InjectionSteersOutcome(t *testing.T) {
	f := Fig3()
	sys := f.Sys
	B, C := f.Node("B"), f.Node("C")

	// Without r1 ever visible: cold start lands on {B:r3, C:r6}.
	e := protocol.New(sys, protocol.Classic, selection.Options{})
	e.Withdraw(f.Path("r1"))
	e.ResetAll()
	res := runAll(t, e, 2000)
	if res.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Final.Best[B] != f.Path("r3") || res.Final.Best[C] != f.Path("r6") {
		t.Fatalf("no-r1 outcome: B=p%d C=p%d, want r3/r6", res.Final.Best[B], res.Final.Best[C])
	}

	// With r1 visible long enough to flip B to r4, then withdrawn: the
	// system settles on the OTHER stable solution {B:r4, C:r5}.
	e2 := protocol.New(sys, protocol.Classic, selection.Options{})
	res2 := runAll(t, e2, 2000)
	if res2.Outcome != protocol.Converged {
		t.Fatalf("with-r1 outcome = %v", res2.Outcome)
	}
	if res2.Final.Best[B] != f.Path("r4") || res2.Final.Best[C] != f.Path("r5") {
		t.Fatalf("with-r1 outcome: B=p%d C=p%d, want r4/r5", res2.Final.Best[B], res2.Final.Best[C])
	}
	e2.Withdraw(f.Path("r1"))
	res3 := runAll(t, e2, 2000)
	if res3.Outcome != protocol.Converged {
		t.Fatalf("post-withdraw outcome = %v", res3.Outcome)
	}
	if res3.Final.Best[B] != f.Path("r4") || res3.Final.Best[C] != f.Path("r5") {
		t.Fatalf("post-withdraw outcome: B=p%d C=p%d, want r4/r5 (history dependence)",
			res3.Final.Best[B], res3.Final.Best[C])
	}
}

func TestFig3ModifiedIsHistoryIndependent(t *testing.T) {
	f := Fig3()
	sys := f.Sys

	// Run modified to convergence with r1, withdraw, reconverge.
	e := protocol.New(sys, protocol.Modified, selection.Options{})
	runAll(t, e, 2000)
	e.Withdraw(f.Path("r1"))
	resA := runAll(t, e, 2000)
	if resA.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v", resA.Outcome)
	}

	// Fresh modified run that never saw r1.
	e2 := protocol.New(sys, protocol.Modified, selection.Options{})
	e2.Withdraw(f.Path("r1"))
	e2.ResetAll()
	resB := runAll(t, e2, 2000)
	if resB.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v", resB.Outcome)
	}
	if !resA.Final.BestEqual(resB.Final) {
		t.Fatalf("modified protocol is history-dependent: %v vs %v", resA.Final, resB.Final)
	}
}

// --- Figure 12 ---------------------------------------------------------------

func TestFig12RealRouteDiffersFromBelieved(t *testing.T) {
	f := Fig12()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	res := runAll(t, e, 2000)
	if res.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	u, w := f.Node("u"), f.Node("w")
	if res.Final.Best[u] != f.Path("px") {
		t.Fatalf("u best = p%d, want px", res.Final.Best[u])
	}
	if res.Final.Best[w] != f.Path("pw") {
		t.Fatalf("w best = p%d, want pw (E-BGP over I-BGP)", res.Final.Best[w])
	}
	plane := forwarding.NewPlane(f.Sys, res.Final)
	tr := plane.Forward(u)
	if tr.Looped || tr.Blackholed {
		t.Fatalf("trace = %v", tr)
	}
	// The packet from u actually leaves via w's exit, not u's chosen one.
	if tr.ExitPath != f.Path("pw") {
		t.Fatalf("real exit = p%d, want pw", tr.ExitPath)
	}
	// Legal per Lemma 7.6.
	if bad := plane.CheckLemma76(); len(bad) != 0 {
		t.Fatalf("Lemma 7.6 violations: %v", bad)
	}
}

// --- Figure 13 ---------------------------------------------------------------

// TestFig13WaltonStillOscillates is E8: the Walton et al. fix fails on the
// pinned counterexample — exhaustively, no reachable fixed point exists
// under either classic or Walton I-BGP — while the modified protocol
// converges.
func TestFig13WaltonStillOscillates(t *testing.T) {
	f := Fig13()
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton} {
		e := protocol.New(f.Sys, policy, selection.Options{})
		res := runAll(t, e, 8000)
		if res.Outcome != protocol.Cycled {
			t.Fatalf("%v: round-robin outcome = %v, want cycled", policy, res.Outcome)
		}
		e.ResetAll()
		a := explore.Reachable(e, explore.Options{Mode: explore.SingletonsPlusAll, MaxStates: 3000000})
		if a.Truncated {
			t.Fatalf("%v: reachability truncated at %d states", policy, a.States)
		}
		if a.Stabilizable() {
			t.Fatalf("%v: found a reachable fixed point; counterexample broken", policy)
		}
	}
	e := protocol.New(f.Sys, protocol.Modified, selection.Options{})
	res := runAll(t, e, 8000)
	if res.Outcome != protocol.Converged {
		t.Fatalf("modified outcome = %v", res.Outcome)
	}
	for _, r := range protocol.RunSeeds(e, 6, 8000) {
		if r.Outcome != protocol.Converged || !r.Final.Equal(res.Final) {
			t.Fatal("modified protocol schedule-dependent on Fig13")
		}
	}
}

// TestFig13IsCrossedSeed8905 records where Figure 13 came from: it is
// exactly the crossed-family draw that `ibgpcensus -job fig13` flags at
// seed 8905 — same routers and clusters, same exits, same links and costs.
func TestFig13IsCrossedSeed8905(t *testing.T) {
	drawn, err := workload.SampleCrossed(workload.CrossedSpec{
		Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5,
	}, 8905)
	if err != nil {
		t.Fatal(err)
	}
	got, want := topology.ToSpec(Fig13().Sys), topology.ToSpec(drawn)
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Errorf("clusters:\n got %+v\nwant %+v", got.Clusters, want.Clusters)
	}
	if !reflect.DeepEqual(got.Exits, want.Exits) {
		t.Errorf("exits:\n got %+v\nwant %+v", got.Exits, want.Exits)
	}
	linkSet := func(spec *topology.Spec) map[[2]string]int64 {
		set := map[[2]string]int64{}
		for _, l := range spec.Links {
			ends := [2]string{l.A, l.B}
			if ends[0] > ends[1] {
				ends[0], ends[1] = ends[1], ends[0]
			}
			set[ends] = l.Cost
		}
		return set
	}
	if g, w := linkSet(got), linkSet(want); !reflect.DeepEqual(g, w) {
		t.Errorf("links:\n got %v\nwant %v", g, w)
	}
}

// TestFig13IsMEDInduced: with all MEDs equalised the oscillation vanishes
// under both broken protocols, as the paper requires of Figure 13.
func TestFig13IsMEDInduced(t *testing.T) {
	f := Fig13()
	spec := topologyToEqualMED(f)
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton} {
		e := protocol.New(spec, policy, selection.Options{})
		res := runAll(t, e, 8000)
		if res.Outcome != protocol.Converged {
			t.Fatalf("%v with equal MEDs: outcome = %v, want converged", policy, res.Outcome)
		}
	}
}

// --- Figure 14 ---------------------------------------------------------------

func TestFig14RoutingLoopClassicAndWalton(t *testing.T) {
	f := Fig14()
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton} {
		e := protocol.New(f.Sys, policy, selection.Options{})
		res := runAll(t, e, 2000)
		if res.Outcome != protocol.Converged {
			t.Fatalf("%v: outcome = %v", policy, res.Outcome)
		}
		// Clients only ever hear their reflector's own route.
		if res.Final.Best[f.Node("c1")] != f.Path("r1") || res.Final.Best[f.Node("c2")] != f.Path("r2") {
			t.Fatalf("%v: client routes unexpected: %v", policy, res.Final)
		}
		plane := forwarding.NewPlane(f.Sys, res.Final)
		loops := plane.Loops()
		if len(loops) != 2 {
			t.Fatalf("%v: loops at %v, want both clients", policy, loops)
		}
		tr := plane.Forward(f.Node("c2"))
		if !tr.Looped {
			t.Fatalf("%v: c2's packets should loop, trace %v", policy, tr)
		}
	}
}

func TestFig14ModifiedLoopFree(t *testing.T) {
	f := Fig14()
	e := protocol.New(f.Sys, protocol.Modified, selection.Options{})
	res := runAll(t, e, 2000)
	if res.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// "c1 chooses r2 and c2 chooses r1 (lower IGP metric)".
	if res.Final.Best[f.Node("c1")] != f.Path("r2") {
		t.Fatalf("c1 best = p%d, want r2", res.Final.Best[f.Node("c1")])
	}
	if res.Final.Best[f.Node("c2")] != f.Path("r1") {
		t.Fatalf("c2 best = p%d, want r1", res.Final.Best[f.Node("c2")])
	}
	plane := forwarding.NewPlane(f.Sys, res.Final)
	if !plane.LoopFree() {
		t.Fatalf("loops remain: %v", plane.Loops())
	}
	if bad := plane.CheckLemma76(); len(bad) != 0 {
		t.Fatalf("Lemma 7.6 violations: %v", bad)
	}
}
