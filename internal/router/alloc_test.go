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
// encode all run on the router's workspace, and the Adaptive detector's
// history — the one lazily grown per-RIB set — is only kept under Adaptive.
// Each cycle also delivers the reflector's UPDATE to a client and refreshes
// it, so under NewRouters two routers with different peer counts take
// turns on one shared workspace; NewRouter gives each its own.
func TestRefreshAllocFloor(t *testing.T) {
	builders := []struct {
		name  string
		build func(d *Domain, ids []bgp.NodeID, c *Counters) []*Router
	}{
		{"NewRouter", func(d *Domain, ids []bgp.NodeID, c *Counters) []*Router {
			return []*Router{d.NewRouter(ids[0], c), d.NewRouter(ids[1], c)}
		}},
		{"NewRouters", func(d *Domain, ids []bgp.NodeID, c *Counters) []*Router {
			all := d.NewRouters(c)
			return []*Router{all[ids[0]], all[ids[1]]}
		}},
	}
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Modified} {
		for _, b := range builders {
			sys, rr, paths := star(t)
			client := sys.Peers(rr)[0]
			var c Counters
			rts := b.build(Single(sys, policy, selection.Options{}), []bgp.NodeID{rr, client}, &c)
			r, cl := rts[0], rts[1]
			var buf []byte
			toClient := func(w bgp.NodeID, upd *wire.Update) (int64, error) {
				var err error
				if w == client {
					buf, err = wire.AppendUpdate(buf[:0], upd)
				}
				return 0, err
			}
			sink := func(bgp.NodeID, *wire.Update) (int64, error) { return 0, nil }
			deliver := func() {
				v, _, err := wire.DecodeView(buf)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.ApplyUpdateView(0, rr, v); err != nil {
					t.Fatal(err)
				}
				cl.Refresh(0, sink)
			}

			// Warm the workspace, then measure.
			r.Inject(0, 0, paths[0])
			r.Refresh(0, toClient)
			deliver()
			cycle := func() {
				r.WithdrawExternal(0, 0, paths[0])
				r.Refresh(0, toClient)
				deliver()
				r.Inject(0, 0, paths[0])
				r.Refresh(0, toClient)
				deliver()
			}
			cycle()

			if perRefresh := testing.AllocsPerRun(200, cycle) / 4; perRefresh > 0 {
				t.Errorf("%v, %s: steady-state refresh allocates %.1f per refresh, want 0", policy, b.name, perRefresh)
			}
			if c.Sent.Load() == 0 || c.Received.Load() == 0 {
				t.Errorf("%v, %s: no UPDATE sent and applied; the cycle measures nothing", policy, b.name)
			}
		}
	}
}
