package router_test

// Differential tests across the three execution substrates — the abstract
// activation model (package protocol), the discrete-event message
// simulator (package msgsim) and the TCP speakers (package speaker) — all
// driving the identical router core.
//
// Lemma 7.3 / Theorem 7: under the modified protocol the final routing
// configuration is determined by the E-BGP input alone, independent of
// message ordering and timing. So every figure must converge to the same
// best-route assignment on every substrate and under every delay seed.
// Classic I-BGP carries no such guarantee: Figure 1(a) oscillates forever
// and Figure 3's outcome is decided by message timing — on both
// operational substrates.

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/speaker"
)

const (
	quiesceTimeout = 10 * time.Second
	settle         = 150 * time.Millisecond
)

// modelFinal runs the activation model to convergence.
func modelFinal(t *testing.T, f *figures.Fig) []bgp.PathID {
	t.Helper()
	e := protocol.New(f.Sys, protocol.Modified, selection.Options{})
	res := protocol.Run(e, protocol.RoundRobin(f.Sys.N()), protocol.RunOptions{MaxSteps: 20000})
	if res.Outcome != protocol.Converged {
		t.Fatalf("model did not converge: %+v", res)
	}
	return res.Final.Best
}

func TestLemma73SubstratesAgreeOnEveryFigure(t *testing.T) {
	for _, entry := range figures.All() {
		entry := entry
		t.Run("fig"+entry.Name, func(t *testing.T) {
			t.Parallel()
			f := entry.Build()
			want := modelFinal(t, f)

			// Discrete-event simulator, several delay seeds.
			for seed := int64(1); seed <= 4; seed++ {
				s := msgsim.New(f.Sys, protocol.Modified, selection.Options{},
					msgsim.MustRandomDelay(seed, 1, 40))
				s.InjectAll()
				res := s.Run(0)
				if !res.Quiesced {
					t.Fatalf("msgsim seed %d did not quiesce: %+v", seed, res)
				}
				for u := range want {
					if res.Best[u] != want[u] {
						t.Fatalf("msgsim seed %d: node %d best %v, model %v",
							seed, u, res.Best, want)
					}
				}
			}

			// TCP speakers under real OS scheduling.
			n := speaker.New(f.Sys, protocol.Modified, selection.Options{})
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			defer n.Stop()
			n.InjectAll()
			if !n.WaitQuiesce(quiesceTimeout, settle) {
				t.Fatalf("TCP network did not quiesce (counters %+v)", n.Counters())
			}
			got := n.BestAllFor(0)
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("TCP: node %d best %v, model %v", u, got, want)
				}
			}
		})
	}
}

// TestClassicFig1aOscillatesOnBothSubstrates: the Section 3 persistent MED
// oscillation does not quiesce under classic I-BGP on either operational
// substrate.
func TestClassicFig1aOscillatesOnBothSubstrates(t *testing.T) {
	f := figures.Fig1a()

	s := msgsim.New(f.Sys, protocol.Classic, selection.Options{}, msgsim.ConstantDelay(10))
	s.InjectAll()
	if res := s.Run(20000); res.Quiesced {
		t.Fatalf("msgsim quiesced on Fig 1(a) under classic I-BGP: %+v", res)
	}

	n := speaker.New(f.Sys, protocol.Classic, selection.Options{})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.InjectAll()
	if n.WaitQuiesce(2*time.Second, 400*time.Millisecond) {
		t.Fatalf("TCP network quiesced on Fig 1(a) under classic I-BGP (counters %+v)", n.Counters())
	}
}

// TestClassicFig3TimingDependentOnTCP reproduces the Figure 3 / Table 1
// observation on the TCP substrate: the same final E-BGP input reaches
// different stable solutions depending on whether route r1 was visible for
// a while. (The msgsim variant is TestFig3DelayScenarios in that package.)
func TestClassicFig3TimingDependentOnTCP(t *testing.T) {
	f := figures.Fig3()
	B, C := f.Node("B"), f.Node("C")

	// Scenario 1: r1 never appears — {B:r3, C:r6}.
	n1 := speaker.New(f.Sys, protocol.Classic, selection.Options{})
	if err := n1.Start(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()
	for _, name := range []string{"r2", "r3", "r4", "r5", "r6"} {
		n1.InjectPrefix(0, f.Path(name))
	}
	if !n1.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("scenario 1 did not quiesce")
	}
	if n1.BestFor(0, B) != f.Path("r3") || n1.BestFor(0, C) != f.Path("r6") {
		t.Fatalf("scenario 1: B=%v C=%v, want r3/r6", n1.BestFor(0, B), n1.BestFor(0, C))
	}

	// Scenario 2: r1 is visible long enough to settle, then withdrawn —
	// same final E-BGP input, different stable solution {B:r4, C:r5}.
	n2 := speaker.New(f.Sys, protocol.Classic, selection.Options{})
	if err := n2.Start(); err != nil {
		t.Fatal(err)
	}
	defer n2.Stop()
	n2.InjectAll()
	if !n2.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("scenario 2 did not quiesce after injection")
	}
	n2.WithdrawPrefix(0, f.Path("r1"))
	if !n2.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("scenario 2 did not quiesce after withdrawal")
	}
	if n2.BestFor(0, B) != f.Path("r4") || n2.BestFor(0, C) != f.Path("r5") {
		t.Fatalf("scenario 2: B=%v C=%v, want r4/r5", n2.BestFor(0, B), n2.BestFor(0, C))
	}
}
