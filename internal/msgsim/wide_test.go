package msgsim

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// TestSeventyExitDomainConverges runs the operational stack past the
// 64-path word boundary, which no figure or benchmark input does: a
// topogen.Small-shaped domain with 70 exit paths per prefix, so every RIB
// slab, dominance row and diff spans two words. Under jittered delays and
// mid-run churn on paths of both words it must reach the state a fresh
// fixed-delay run of the surviving paths reaches (Lemma 7.4), which must
// be the model engine's.
func TestSeventyExitDomainConverges(t *testing.T) {
	spec := topogen.Small()
	spec.Exits = 70
	spec.Prefixes = 2
	gen, err := topogen.Generate(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	built, err := topology.BuildSpecAll(gen)
	if err != nil {
		t.Fatal(err)
	}
	systems := map[uint32]*topology.System{}
	for i, sys := range built {
		systems[uint32(i)] = sys
	}
	gone := map[bgp.PathID]bool{3: true, 66: true, 69: true}

	s := NewMulti(systems, protocol.Modified, selection.Options{}, MustRandomDelay(8, 1, 25))
	s.InjectAll()
	for p := range systems {
		for id := range gone {
			s.WithdrawPrefixAt(40+int64(id), p, id)
		}
		s.WithdrawPrefixAt(90, p, 65)
		s.InjectPrefixAt(2000, p, 65) // beyond the calendar's window
	}
	if res := s.Run(0); !res.Quiesced {
		t.Fatalf("70-exit domain did not quiesce: %+v", res)
	}

	ref := NewMulti(systems, protocol.Modified, selection.Options{}, ConstantDelay(1))
	for p, sys := range systems {
		for _, ex := range sys.Exits() {
			if !gone[ex.ID] {
				ref.InjectPrefixAt(0, p, ex.ID)
			}
		}
	}
	if res := ref.Run(0); !res.Quiesced {
		t.Fatalf("fixed-delay reference did not quiesce: %+v", res)
	}

	wide := false
	for p, sys := range systems {
		e := protocol.New(sys, protocol.Modified, selection.Options{})
		for id := range gone {
			e.Withdraw(id)
		}
		model := protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 20000})
		if model.Outcome != protocol.Converged {
			t.Fatalf("prefix %d: model did not converge: %+v", p, model.Outcome)
		}
		for u := 0; u < sys.N(); u++ {
			got := s.BestFor(p, bgp.NodeID(u))
			if want := ref.BestFor(p, bgp.NodeID(u)); got != want {
				t.Errorf("prefix %d router %d: best p%d, fixed-delay reference p%d", p, u, got, want)
			}
			if want := model.Final.Best[u]; got != want {
				t.Errorf("prefix %d router %d: best p%d, model engine p%d", p, u, got, want)
			}
			wide = wide || got >= 64
		}
	}
	if !wide {
		t.Error("no router chose a second-word path; the test does not reach it")
	}
}
