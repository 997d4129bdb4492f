package protocol

import (
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/selection"
	"repro/internal/topology"
)

// fig1aLike rebuilds the Figure 1(a) system locally (package figures
// imports protocol, so the test constructs it directly).
func fig1aLike(t *testing.T) *topology.System {
	t.Helper()
	b := topology.NewBuilder()
	cA := b.NewCluster()
	cB := b.NewCluster()
	A := b.Reflector("A", cA)
	a1 := b.Client("a1", cA)
	a2 := b.Client("a2", cA)
	B := b.Reflector("B", cB)
	b1 := b.Client("b1", cB)
	b.Link(A, a1, 5).Link(A, a2, 4).Link(A, B, 1).Link(B, b1, 10)
	b.Exit(a1, topology.ExitSpec{NextAS: 2, MED: 0})
	b.Exit(a2, topology.ExitSpec{NextAS: 1, MED: 1})
	b.Exit(b1, topology.ExitSpec{NextAS: 1, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAdaptiveSettlesOscillation(t *testing.T) {
	sys := fig1aLike(t)
	// Classic cycles...
	if res := Run(New(sys, Classic, selection.Options{}), RoundRobin(sys.N()),
		RunOptions{MaxSteps: 4000}); res.Outcome != Cycled {
		t.Fatalf("classic outcome %v", res.Outcome)
	}
	// ...adaptive converges, upgrading at least one router.
	e := New(sys, Adaptive, selection.Options{})
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 4000})
	if res.Outcome != Converged {
		t.Fatalf("adaptive outcome %v", res.Outcome)
	}
	upgraded := 0
	for u := 0; u < sys.N(); u++ {
		if e.Upgraded(bgp.NodeID(u)) {
			upgraded++
		}
	}
	if upgraded == 0 {
		t.Fatal("no router upgraded despite oscillation")
	}
	// Under random fair schedules it converges too.
	for i, r := range RunSeeds(e, 6, 4000) {
		if r.Outcome != Converged {
			t.Fatalf("seed %d: %v", i, r.Outcome)
		}
	}
}

func TestAdaptiveStaysClassicOnQuietSystem(t *testing.T) {
	// The mini system converges under classic; adaptive must not upgrade
	// anyone, and must produce the identical outcome.
	sys, _, _ := miniSystem(t)
	classic := Run(New(sys, Classic, selection.Options{}), RoundRobin(sys.N()), RunOptions{MaxSteps: 1000})
	e := New(sys, Adaptive, selection.Options{})
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 1000})
	if res.Outcome != Converged {
		t.Fatalf("outcome %v", res.Outcome)
	}
	for u := 0; u < sys.N(); u++ {
		if e.Upgraded(bgp.NodeID(u)) {
			t.Fatalf("node %d upgraded on a quiet system (flaps %d)", u, e.Flaps(bgp.NodeID(u)))
		}
	}
	if !res.Final.BestEqual(classic.Final) {
		t.Fatal("adaptive differs from classic on a quiet system")
	}
}

func TestAdaptiveRevisitSemantics(t *testing.T) {
	// Cold-start churn (None -> a -> b) is not a revisit; only returning
	// to a previously held best counts.
	sys, n, p := miniSystem(t)
	e := New(sys, Adaptive, selection.Options{})
	Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 1000})
	if e.Flaps(n["R"]) != 0 {
		t.Fatalf("cold-start convergence counted %d revisits", e.Flaps(n["R"]))
	}
	// Force revisits at R by toggling the winning exit path.
	for i := 0; i < 2*AdaptiveThreshold; i++ {
		e.Withdraw(p["pc"])
		Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 1000})
		e.Restore(p["pc"])
		e.ResetNode(n["c"]) // c relearns its own exit
		Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 1000})
	}
	if e.Flaps(n["R"]) < AdaptiveThreshold {
		t.Fatalf("toggling should produce revisits, got %d", e.Flaps(n["R"]))
	}
	if !e.Upgraded(n["R"]) {
		t.Fatal("R should have upgraded after repeated revisits")
	}
	// A crash clears the detector state.
	e.ResetNode(n["R"])
	if e.Upgraded(n["R"]) || e.Flaps(n["R"]) != 0 {
		t.Fatal("ResetNode did not clear adaptive state")
	}
}

func TestCycleWitness(t *testing.T) {
	sys := fig1aLike(t)
	e := New(sys, Classic, selection.Options{})
	steps, cycleLen, ok := CycleWitness(e, RoundRobin(sys.N()), 10000)
	if !ok {
		t.Fatal("no witness on an oscillating system")
	}
	if cycleLen < 1 || len(steps) == 0 {
		t.Fatalf("witness empty: len=%d steps=%v", cycleLen, steps)
	}
	// A cycle's net effect is zero: per node, the first From equals the
	// last To.
	first := map[bgp.NodeID]bgp.PathID{}
	last := map[bgp.NodeID]bgp.PathID{}
	var order []bgp.NodeID
	for _, st := range steps {
		if _, seen := first[st.Node]; !seen {
			first[st.Node] = st.From
			order = append(order, st.Node)
		}
		last[st.Node] = st.To
	}
	for _, node := range order {
		if last[node] != first[node] {
			t.Fatalf("node %d: cycle does not close (%d -> %d)", node, first[node], last[node])
		}
	}
	// A convergent system yields no witness.
	sys2, _, _ := miniSystem(t)
	e2 := New(sys2, Classic, selection.Options{})
	if _, _, ok := CycleWitness(e2, RoundRobin(sys2.N()), 1000); ok {
		t.Fatal("witness on a convergent system")
	}
	// Aperiodic schedules cannot prove cycles.
	e3 := New(sys, Classic, selection.Options{})
	if _, _, ok := CycleWitness(e3, PermutationRounds(sys.N(), 1), 500); ok {
		t.Fatal("witness from an aperiodic schedule")
	}
}

func TestAdaptiveStateKeyIncludesDetector(t *testing.T) {
	sys := fig1aLike(t)
	e1 := New(sys, Adaptive, selection.Options{})
	e2 := New(sys, Adaptive, selection.Options{})
	// Drive e2 until some node's detector state differs while the route
	// state may coincide.
	for i := 0; i < 3*sys.N(); i++ {
		e2.Activate(bgp.NodeID(i % sys.N()))
	}
	if slices.Equal(e1.EncodeState(nil), e2.EncodeState(nil)) {
		t.Fatal("detector state not reflected in the encoded state")
	}
}
