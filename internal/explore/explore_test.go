package explore

import (
	"context"
	"slices"

	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
)

func TestReachableFindsFixedPointOnConvergentSystem(t *testing.T) {
	f := figures.Fig14() // converges under classic
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	for _, mode := range []SuccessorMode{Singletons, SingletonsPlusAll, AllSubsets} {
		a := Reachable(e, Options{Mode: mode})
		if a.Truncated {
			t.Fatalf("mode %d: truncated", mode)
		}
		if !a.Stabilizable() {
			t.Fatalf("mode %d: no fixed point found on a convergent system", mode)
		}
		if a.States == 0 || a.Transitions == 0 {
			t.Fatalf("mode %d: empty analysis", mode)
		}
	}
}

func TestReachableProvesOscillation(t *testing.T) {
	f := figures.Fig1a()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	a := Reachable(e, Options{Mode: AllSubsets})
	if a.Truncated {
		t.Fatal("truncated")
	}
	if a.Stabilizable() {
		t.Fatal("Fig1a should have no reachable fixed point under classic I-BGP")
	}
}

func TestReachableModifiedHasUniqueFixedPoint(t *testing.T) {
	// The modified protocol's reachable graph funnels into exactly one
	// fixed point on every figure.
	for _, fig := range []*figures.Fig{figures.Fig1a(), figures.Fig2(), figures.Fig14()} {
		e := protocol.New(fig.Sys, protocol.Modified, selection.Options{})
		a := Reachable(e, Options{Mode: SingletonsPlusAll})
		if a.Truncated {
			t.Fatal("truncated")
		}
		if len(a.FixedPoints) != 1 {
			t.Fatalf("modified protocol has %d reachable fixed points, want 1", len(a.FixedPoints))
		}
	}
}

func TestReachableRestoresEngine(t *testing.T) {
	f := figures.Fig2()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	before := e.EncodeState(nil)
	Reachable(e, Options{Mode: Singletons})
	if !slices.Equal(e.EncodeState(nil), before) {
		t.Fatal("Reachable mutated the engine")
	}
}

func TestReachableTruncation(t *testing.T) {
	f := figures.Fig1a()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	a := Reachable(e, Options{Mode: Singletons, MaxStates: 2})
	if !a.Truncated {
		t.Fatal("tiny budget should truncate")
	}
}

func TestEnumerateStableClassicMatchesReachability(t *testing.T) {
	// On Fig2 both analyses agree there are exactly two stable solutions,
	// and the reachable fixed points appear in the global enumeration.
	f := figures.Fig2()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	enum := EnumerateStableClassic(e, 0)
	if enum.Truncated || len(enum.Solutions) != 2 {
		t.Fatalf("enumeration: %d solutions (truncated %v)", len(enum.Solutions), enum.Truncated)
	}
	reach := Reachable(e, Options{Mode: AllSubsets})
	for _, fp := range reach.FixedPoints {
		found := false
		for _, s := range enum.Solutions {
			if s.BestEqual(fp) {
				found = true
			}
		}
		if !found {
			t.Fatalf("reachable fixed point %v missing from enumeration", fp)
		}
	}
}

func TestEnumerateStableClassicBudget(t *testing.T) {
	f := figures.Fig1a()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	enum := EnumerateStableClassic(e, 3)
	if !enum.Truncated {
		t.Fatal("tiny budget should truncate")
	}
	if enum.Candidates != 4 {
		t.Fatalf("candidates = %d, want budget+1", enum.Candidates)
	}
}

func TestEnumerateStableRestoresEngine(t *testing.T) {
	f := figures.Fig2()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	before := e.EncodeState(nil)
	EnumerateStableClassic(e, 0)
	if !slices.Equal(e.EncodeState(nil), before) {
		t.Fatal("EnumerateStableClassic mutated the engine")
	}
}

func TestStableSolutionsSurviveRun(t *testing.T) {
	// Loading an enumerated stable solution into an engine and running any
	// schedule must keep it unchanged (it is a fixed point).
	f := figures.Fig2()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	enum := EnumerateStableClassic(e, 0)
	for i, s := range enum.Solutions {
		e.RestoreFrom(&s)
		res := protocol.Run(e, protocol.PermutationRounds(f.Sys.N(), 99), protocol.RunOptions{MaxSteps: 500})
		if res.Outcome != protocol.Converged || res.Steps != 0 {
			t.Fatalf("solution %d moved under activation: %+v", i, res)
		}
		if !res.Final.BestEqual(s) {
			t.Fatalf("solution %d changed", i)
		}
	}
}

func TestSingletonVsSubsetReachability(t *testing.T) {
	// Subset activations can only add states, never remove fixed points
	// that singleton activations find.
	f := figures.Fig2()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	single := Reachable(e, Options{Mode: Singletons})
	subset := Reachable(e, Options{Mode: AllSubsets})
	if subset.States < single.States {
		t.Fatalf("subset search found fewer states (%d < %d)", subset.States, single.States)
	}
	if len(subset.FixedPoints) < len(single.FixedPoints) {
		t.Fatal("subset search lost fixed points")
	}
}

func TestReachableFixedPointsAreStable(t *testing.T) {
	f := figures.Fig2()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	a := Reachable(e, Options{Mode: SingletonsPlusAll})
	for _, fp := range a.FixedPoints {
		e.RestoreFrom(&fp)
		if !e.Stable() {
			t.Fatalf("reported fixed point is not stable: %v", fp)
		}
		for u := 0; u < f.Sys.N(); u++ {
			if e.WouldChange(bgp.NodeID(u)) {
				t.Fatalf("node %d would change in fixed point", u)
			}
		}
	}
}

func TestReachableCancellation(t *testing.T) {
	f := figures.Fig1a()
	e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := Reachable(e, Options{Mode: AllSubsets, Ctx: ctx})
	if !a.Truncated {
		t.Fatal("cancelled search not marked truncated")
	}
	if a.States != 0 {
		t.Fatalf("cancelled-before-start search visited %d states", a.States)
	}
	// The engine must still be restored after an interrupted search.
	if !slices.Equal(e.EncodeState(nil), protocol.New(f.Sys, protocol.Classic, selection.Options{}).EncodeState(nil)) {
		t.Fatal("cancelled Reachable left the engine dirty")
	}
}
