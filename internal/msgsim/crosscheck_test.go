package msgsim

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bgp"

	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/workload"
)

// TestQuickModifiedSubstrateAgreement is the strongest cross-substrate
// invariant: on any system, the modified protocol's unique outcome is the
// same in the abstract activation model and in the operational
// message-level simulator, for any delay seed. (Theorem 7 says the final
// best route of node u is best_u(route(S', u)) with S' determined by the
// E-BGP input alone — independent of the execution substrate.)
func TestQuickModifiedSubstrateAgreement(t *testing.T) {
	check := func(seed int64) bool {
		c := 2 + int((seed%3+3)%3)
		sys, err := workload.Generate(workload.Default(c), seed)
		if err != nil {
			return false
		}
		e := protocol.New(sys, protocol.Modified, selection.Options{})
		pres := protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 8000})
		if pres.Outcome != protocol.Converged {
			return false
		}
		s := New(sys, protocol.Modified, selection.Options{}, MustRandomDelay(seed+99, 1, 30))
		s.InjectAll()
		mres := s.Run(0)
		if !mres.Quiesced {
			return false
		}
		for u := range mres.Best {
			if mres.Best[u] != pres.Final.Best[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickClassicQuiescentStatesAreModelStable: whenever the operational
// simulator quiesces under classic I-BGP, the resulting best-route
// assignment is a stable solution of the paper's formal model (the
// advertisement assignment is a fixed point). This ties the operational
// substrate's terminal states to the model's stability notion.
func TestQuickClassicQuiescentStatesAreModelStable(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 30; seed++ {
		sys, err := workload.Generate(workload.Default(3), seed)
		if err != nil {
			t.Fatal(err)
		}
		s := New(sys, protocol.Classic, selection.Options{}, MustRandomDelay(seed+1, 1, 25))
		s.InjectAll()
		res := s.Run(30000)
		if !res.Quiesced {
			continue // oscillating sample: nothing to check
		}
		checked++
		adv := make([]bgp.PathSet, sys.N())
		for u := range adv {
			adv[u] = bgp.NewPathSet(res.Best[u])
		}
		e := protocol.New(sys, protocol.Classic, selection.Options{})
		if !e.InducedConfig(adv) {
			t.Fatalf("seed %d: quiescent operational state is not a model fixed point: %v",
				seed, res.Best)
		}
		var induced protocol.Snapshot
		e.SnapshotInto(&induced)
		for u := range res.Best {
			if induced.Best[u] != res.Best[u] {
				t.Fatalf("seed %d: induced best differs at node %d", seed, u)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d quiescent samples; workload too oscillatory for the test to bite", checked)
	}
}

// TestModifiedGoodExitsAreGlobalSurvivors: after convergence, every node
// advertises exactly the global MED-survivor set
// S' = Choose^B(⋃ MyExits) — Lemmas 7.4/7.5.
func TestModifiedGoodExitsAreGlobalSurvivors(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		sys, err := workload.Generate(workload.Default(3), seed)
		if err != nil {
			t.Fatal(err)
		}
		e := protocol.New(sys, protocol.Modified, selection.Options{})
		res := protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 8000})
		if res.Outcome != protocol.Converged {
			t.Fatalf("seed %d: %v", seed, res.Outcome)
		}
		sPrime := selection.SurvivorsBInPlace(slices.Clone(sys.Exits()), selection.PerNeighborAS, nil)
		for u := 0; u < sys.N(); u++ {
			good := res.Final.Advertised[u]
			if good.Len() != len(sPrime) {
				t.Fatalf("seed %d node %d: advertised %v, want the %d global survivors",
					seed, u, good, len(sPrime))
			}
			for _, p := range sPrime {
				if !good.Contains(p.ID) {
					t.Fatalf("seed %d node %d: survivor p%d missing from %v", seed, u, p.ID, good)
				}
			}
		}
	}
}
