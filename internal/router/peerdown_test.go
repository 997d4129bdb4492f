package router

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/wire"
)

// chain builds client -> RR with one exit path at the client, so the
// reflector's only route is learned over the session.
func chain(t *testing.T) (*topology.System, bgp.NodeID, bgp.NodeID, bgp.PathID) {
	t.Helper()
	b := topology.NewBuilder()
	c0 := b.NewCluster()
	rr := b.Reflector("RR", c0)
	cl := b.Client("c1", c0)
	b.Link(rr, cl, 10)
	p := b.Exit(cl, topology.ExitSpec{NextAS: 1})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys, rr, cl, p
}

// TestPeerDownFlushesLearnedRoutes: killing the session deletes every
// route learned from the peer, the decision process moves off them, and
// the flush is surfaced as a typed event and counted.
func TestPeerDownFlushesLearnedRoutes(t *testing.T) {
	sys, rrID, clID, p := chain(t)
	dom := Single(sys, protocol.Classic, selection.Options{})
	var c Counters
	rr := dom.NewRouter(rrID, &c)
	var events []Event
	rr.Events(func(ev Event) { events = append(events, ev) })

	// The reflector learns p over the session from the client.
	upd := &wire.Update{Announced: []wire.RouteRecord{wire.FromExitPath(sys.Exit(p))}}
	if err := rr.ApplyUpdate(0, clID, upd); err != nil {
		t.Fatal(err)
	}
	rr.Refresh(0, func(bgp.NodeID, *wire.Update) (int64, error) { return 0, nil })
	if rr.Best(0) != p {
		t.Fatalf("best = %v before the session death, want p%d", rr.Best(0), p)
	}

	// Session dies: the learned route must be flushed, not left stale.
	flushed := rr.PeerDown(10, clID)
	if flushed != 1 {
		t.Fatalf("PeerDown flushed %d routes, want 1", flushed)
	}
	if !rr.peerIsDown(clID) {
		t.Fatal("peerIsDown false after PeerDown")
	}
	if got := rr.Possible(0); got.Contains(p) {
		t.Fatalf("stale route p%d still in Possible after PeerDown: %v", p, got)
	}
	rr.Refresh(10, func(bgp.NodeID, *wire.Update) (int64, error) { return 0, nil })
	if rr.Best(0) != bgp.None {
		t.Fatalf("best = %v after flush, want none", rr.Best(0))
	}
	if c.Flushed.Load() != 1 {
		t.Fatalf("Flushed counter = %d, want 1", c.Flushed.Load())
	}
	found := false
	for _, ev := range events {
		if ev.Kind == PeerDown {
			found = true
			if ev.Peer != clID || ev.Flushed != 1 {
				t.Fatalf("PeerDown event %+v, want peer %d flushed 1", ev, clID)
			}
		}
	}
	if !found {
		t.Fatal("no PeerDown event emitted")
	}

	// Idempotent: a second PeerDown flushes nothing and emits nothing new.
	evBefore := len(events)
	if again := rr.PeerDown(11, clID); again != 0 {
		t.Fatalf("second PeerDown flushed %d routes", again)
	}
	if len(events) != evBefore {
		t.Fatal("second PeerDown emitted events")
	}
}

// TestDownPeerSkippedAndBackstopped: while a peer is down the refresh
// fan-out never sends to it, and a stale UPDATE claiming to come from it
// is discarded and counted as dropped.
func TestDownPeerSkippedAndBackstopped(t *testing.T) {
	sys, rrID, clID, p := chain(t)
	dom := Single(sys, protocol.Classic, selection.Options{})
	var c Counters
	rr := dom.NewRouter(rrID, &c)
	rr.SetMRAI(100)

	rr.PeerDown(0, clID)
	rr.Inject(1, 0, p) // own E-BGP route, normally advertised to the client
	var sent []bgp.NodeID
	defs := rr.Refresh(1, func(to bgp.NodeID, _ *wire.Update) (int64, error) {
		sent = append(sent, to)
		return 0, nil
	})
	if len(sent) != 0 || len(defs) != 0 {
		t.Fatalf("refresh reached a down peer: sent=%v defs=%+v", sent, defs)
	}

	upd := &wire.Update{Announced: []wire.RouteRecord{wire.FromExitPath(sys.Exit(p))}}
	if err := rr.ApplyUpdate(2, clID, upd); err == nil {
		t.Fatal("ApplyUpdate accepted an update from a down peer")
	}
	if c.Dropped.Load() != 1 {
		t.Fatalf("Dropped = %d, want 1 (stale update)", c.Dropped.Load())
	}

	// PeerUp: the full current state flows to the reopened peer.
	rr.PeerUp(3, clID)
	if rr.peerIsDown(clID) {
		t.Fatal("peerIsDown true after PeerUp")
	}
	var got []*wire.Update
	rr.Refresh(3, func(to bgp.NodeID, u *wire.Update) (int64, error) {
		if to == clID {
			cp := *u
			got = append(got, &cp)
		}
		return 0, nil
	})
	if len(got) != 1 || len(got[0].Announced) != 1 || bgp.PathID(got[0].Announced[0].PathID) != p {
		t.Fatalf("reopened peer did not get the full re-advertisement: %+v", got)
	}

	// MRAI state was reset by PeerDown: the re-advertisement was not
	// gated even though the interval had not elapsed.
	if c.Deferrals.Load() != 0 {
		t.Fatalf("Deferrals = %d, want 0 (PeerDown resets the MRAI window)", c.Deferrals.Load())
	}
}
