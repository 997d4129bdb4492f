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
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestRefreshAllocFloor pins the steady-state withdraw/inject refresh
// cycle at zero heap allocations per refresh, under Classic, under
// Modified (the policy every benchmark workload runs) and on a Walton
// reflector whose candidates span two neighbouring ASes: the dominance
// pass (per AS under Walton), survivor materialisation, flush preparation,
// per-peer diff and coalesced encode all run on the router's workspace,
// and the Adaptive detector's history — the one lazily grown per-RIB set —
// is only kept under Adaptive.
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
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Modified, protocol.Walton} {
		for _, b := range builders {
			sys, rr, paths := star(t)
			if policy == protocol.Walton {
				sys, rr, paths = starTwoAS(t)
			}
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
			if policy == protocol.Walton {
				r.Inject(0, 0, paths[1]) // stays: the cycle's candidates span AS 1 and AS 2
			}
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

// starTwoAS is star with the reflector's second exit through AS 2.
func starTwoAS(t *testing.T) (*topology.System, bgp.NodeID, []bgp.PathID) {
	t.Helper()
	b := topology.NewBuilder()
	c0 := b.NewCluster()
	rr := b.Reflector("RR", c0)
	c1 := b.Client("c1", c0)
	c2 := b.Client("c2", c0)
	b.Link(rr, c1, 10).Link(rr, c2, 10)
	r1 := b.Exit(rr, topology.ExitSpec{NextAS: 1, MED: 10})
	r2 := b.Exit(rr, topology.ExitSpec{NextAS: 2, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys, rr, []bgp.PathID{r1, r2}
}
