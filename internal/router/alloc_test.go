//go:build !race

// Allocation floor for the shared router core. The race detector
// instruments allocations, so the floor only holds (and only runs) in
// normal builds; `go test -race` skips this file via the build constraint.

package router

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/wire"
)

// TestRefreshAllocFloor pins the steady-state withdraw/inject refresh
// cycle at zero heap allocations per refresh, under Classic and under
// Modified (the policy every benchmark workload runs): the dominance pass,
// survivor materialisation, flush preparation, per-peer diff and coalesced
// encode all run on router-owned scratch, and the Adaptive detector's
// history — the one lazily grown per-RIB set — is only kept under Adaptive.
func TestRefreshAllocFloor(t *testing.T) {
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Modified} {
		sys, rr, paths := star(t)
		var c Counters
		r := Single(sys, policy, selection.Options{}).NewRouter(rr, &c)
		sink := func(bgp.NodeID, *wire.Update) (int64, error) { return 0, nil }

		// Warm the router scratch, then measure.
		r.Inject(0, 0, paths[0])
		r.Refresh(0, sink)
		cycle := func() {
			r.WithdrawExternal(0, 0, paths[0])
			r.Refresh(0, sink)
			r.Inject(0, 0, paths[0])
			r.Refresh(0, sink)
		}
		cycle()

		if perRefresh := testing.AllocsPerRun(200, cycle) / 2; perRefresh > 0 {
			t.Errorf("%v: steady-state refresh allocates %.1f per refresh, want 0", policy, perRefresh)
		}
		if c.Sent.Load() == 0 {
			t.Errorf("%v: no UPDATE sent; the cycle measures nothing", policy)
		}
	}
}
