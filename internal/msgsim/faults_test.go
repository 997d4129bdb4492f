package msgsim

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/trace"
)

// checkLedger asserts the quiescence accounting identity at rest: every
// message handed to the transport was applied, rejected or lost.
func checkLedger(t *testing.T, c router.Snapshot) {
	t.Helper()
	if c.Sent != c.Received+c.Rejected+c.Dropped {
		t.Fatalf("ledger broken: sent=%d != received=%d + rejected=%d + dropped=%d",
			c.Sent, c.Received, c.Rejected, c.Dropped)
	}
}

// TestFaultTraceDeterministic: the same plan over the same delay seed must
// produce byte-identical traces, counters and outcomes run after run —
// fates are hashed, not drawn, so there is no shared RNG state to diverge.
func TestFaultTraceDeterministic(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Drop: 0.08, Duplicate: 0.06, Reorder: 0.06,
		Delay: 0.2, MaxExtraDelay: 9, Horizon: 400}
	run := func() ([]string, router.Snapshot, []bgp.PathID) {
		f := figures.Fig1a()
		s := New(f.Sys, protocol.Modified, selection.Options{}, MustRandomDelay(3, 1, 12))
		var lines []string
		render := trace.NewRouterEventRenderer(f.Sys, false)
		s.ObserveEvents(func(ev router.Event) { lines = append(lines, render(ev)) })
		if err := s.SetFaults(plan); err != nil {
			t.Fatal(err)
		}
		s.InjectAll()
		res := s.Run(0)
		if !res.Quiesced {
			t.Fatalf("did not quiesce: %+v", res)
		}
		return lines, s.Counters(), res.Best
	}
	l1, c1, b1 := run()
	l2, c2, b2 := run()
	if c1.FaultDrops+c1.FaultDups+c1.FaultDelays+c1.FaultReorders == 0 {
		t.Fatal("plan injected nothing; the test is vacuous")
	}
	if c1 != c2 {
		t.Fatalf("counters diverged:\n%+v\n%+v", c1, c2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("trace line %d diverged:\n%s\n%s", i, l1[i], l2[i])
		}
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("best diverged at router %d: %v vs %v", i, b1[i], b2[i])
		}
	}
	checkLedger(t, c1)
}

// TestSessionResetFlushesAndReconverges: a mid-run session reset flushes
// routes at both ends, loses in-flight messages, and — after the reopen and
// full re-advertisement — the system re-converges to the exact
// configuration of the fault-free run (Lemma 7.4 plus RFC 4271 §8.2).
func TestSessionResetFlushesAndReconverges(t *testing.T) {
	f := figures.Fig1a()
	base := New(f.Sys, protocol.Modified, selection.Options{}, ConstantDelay(3))
	base.InjectAll()
	bres := base.Run(0)
	if !bres.Quiesced {
		t.Fatalf("baseline did not quiesce: %+v", bres)
	}

	u := bgp.NodeID(0)
	w := f.Sys.Peers(u)[0]
	s := New(f.Sys, protocol.Modified, selection.Options{}, ConstantDelay(3))
	plan := &faults.Plan{
		Resets:  []faults.Reset{{A: u, B: w, At: 50, Downtime: 40}},
		Horizon: 600,
	}
	if err := s.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	var sawDown, sawUp bool
	s.routers[u].Events(func(ev router.Event) {
		switch ev.Kind {
		case router.PeerDown:
			sawDown = true
		case router.PeerUp:
			sawUp = true
		}
	})
	s.InjectAll()
	res := s.Run(0)
	if !res.Quiesced {
		t.Fatalf("did not quiesce after reset: %+v", res)
	}
	c := s.Counters()
	if c.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", c.Resets)
	}
	if c.Flushed == 0 {
		t.Fatal("reset flushed no routes; session carried state at t=50")
	}
	if !sawDown || !sawUp {
		t.Fatalf("missing peer lifecycle events: down=%v up=%v", sawDown, sawUp)
	}
	for i := range res.Best {
		if res.Best[i] != bres.Best[i] {
			t.Fatalf("router %d re-converged to %v, fault-free run chose %v",
				i, res.Best[i], bres.Best[i])
		}
	}
	checkLedger(t, c)
}

// TestFaultsCeaseReconvergence: the Lemma 7.4 determinism result under
// chaos — any mix of drops, duplicates, reorders, delays and resets that
// ceases by the horizon leaves the modified protocol in the identical
// final configuration as a fault-free run.
func TestFaultsCeaseReconvergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		fig  *figures.Fig
	}{
		{"Fig1a", figures.Fig1a()},
		{"Fig14", figures.Fig14()},
	} {
		base := New(tc.fig.Sys, protocol.Modified, selection.Options{}, ConstantDelay(5))
		base.InjectAll()
		bres := base.Run(0)
		if !bres.Quiesced {
			t.Fatalf("%s: baseline did not quiesce", tc.name)
		}
		for seed := int64(1); seed <= 6; seed++ {
			plan, err := faults.RandomPlan(seed, tc.fig.Sys.N(), faults.RandomConfig{
				Drop: 0.15, Duplicate: 0.1, Reorder: 0.1, Delay: 0.3,
				MaxExtraDelay: 15, Resets: 2, Horizon: 500,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := New(tc.fig.Sys, protocol.Modified, selection.Options{}, MustRandomDelay(seed, 1, 10))
			if err := s.SetFaults(plan); err != nil {
				t.Fatal(err)
			}
			s.InjectAll()
			res := s.Run(0)
			if !res.Quiesced {
				t.Fatalf("%s seed %d: did not quiesce under %q", tc.name, seed, plan)
			}
			for i := range res.Best {
				if res.Best[i] != bres.Best[i] {
					t.Fatalf("%s seed %d: router %d at %v, fault-free %v (plan %q)",
						tc.name, seed, i, res.Best[i], bres.Best[i], plan)
				}
			}
			checkLedger(t, s.Counters())
		}
	}
}

// TestClassicOscillationSurvivesFaults: faults must not mask the paper's
// headline pathology — classic I-BGP on Figure 1(a) has no stable
// configuration, so it cannot quiesce, faults or none.
func TestClassicOscillationSurvivesFaults(t *testing.T) {
	f := figures.Fig1a()
	plan := &faults.Plan{Seed: 3, Drop: 0.05, Delay: 0.2, MaxExtraDelay: 10, Horizon: 300}
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(7))
	if err := s.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	s.InjectAll()
	if res := s.Run(20000); res.Quiesced {
		t.Fatalf("classic Fig1a quiesced under faults: %+v", res)
	}
}

// TestSetFaultsRejectsInvalidPlans: validation runs against the topology.
func TestSetFaultsRejectsInvalidPlans(t *testing.T) {
	f := figures.Fig1a()
	s := New(f.Sys, protocol.Modified, selection.Options{}, ConstantDelay(1))
	n := f.Sys.N()
	bad := &faults.Plan{Resets: []faults.Reset{{A: bgp.NodeID(n), B: 0, At: 1, Downtime: 1}}}
	if err := s.SetFaults(bad); err == nil {
		t.Fatal("out-of-topology reset accepted")
	}
	if err := s.SetFaults(&faults.Plan{Drop: 1.5}); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := s.SetFaults(nil); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
}
