//go:build !race

// Allocation floor for the model engine. The race detector instruments
// allocations, so the floor only holds (and only runs) in normal builds.

package protocol_test

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// TestActivateAllocFloor pins a warm Engine.Activate, with no observer,
// and a warm Stable (every router's WouldChange) at zero heap allocations
// under every policy: gather, the dominance pass, survivor materialisation
// and — on the Walton reflectors, whose candidates span two neighbouring
// ASes — the per-AS Walton set all run on the engine's scratch. The cycle
// withdraws and restores an exit so the candidate sets really move.
func TestActivateAllocFloor(t *testing.T) {
	fix, _, paths := learnedFromFixture(t)
	for _, sys := range []*topology.System{fix, figures.Fig1a().Sys, figures.Fig13().Sys} {
		p := paths["p"]
		if sys != fix {
			p = 0
		}
		for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified, protocol.Adaptive} {
			e := protocol.New(sys, policy, selection.Options{})
			sweep := func() {
				for v := 0; v < sys.N(); v++ {
					e.Activate(bgp.NodeID(v))
				}
			}
			cycle := func() {
				e.Withdraw(p)
				sweep()
				sweep()
				e.Restore(p)
				sweep()
				sweep()
			}
			cycle()
			cycle()
			if perActivate := testing.AllocsPerRun(50, cycle) / float64(4*sys.N()); perActivate > 0 {
				t.Errorf("%d routers, %v: warm Activate allocates %.2f per call, want 0", sys.N(), policy, perActivate)
			}
			if perStable := testing.AllocsPerRun(50, func() { e.Stable() }); perStable > 0 {
				t.Errorf("%d routers, %v: warm Stable allocates %.2f per call, want 0", sys.N(), policy, perStable)
			}
		}
	}
}
