package router

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/wire"
)

// star builds one reflector RR with two clients and two exit paths at RR
// (r1 MED 10, r2 MED 0, so injecting r2 after r1 moves the best route).
func star(t *testing.T) (*topology.System, bgp.NodeID, []bgp.PathID) {
	t.Helper()
	b := topology.NewBuilder()
	c0 := b.NewCluster()
	rr := b.Reflector("RR", c0)
	c1 := b.Client("c1", c0)
	c2 := b.Client("c2", c0)
	b.Link(rr, c1, 10).Link(rr, c2, 10)
	r1 := b.Exit(rr, topology.ExitSpec{NextAS: 1, MED: 10})
	r2 := b.Exit(rr, topology.ExitSpec{NextAS: 1, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys, rr, []bgp.PathID{r1, r2}
}

// collect returns a SendFunc recording recipients, failing for peers in bad.
func collect(sent *[]bgp.NodeID, bad map[bgp.NodeID]bool) SendFunc {
	return func(to bgp.NodeID, upd *wire.Update) (int64, error) {
		if bad[to] {
			return -1, errors.New("session torn down")
		}
		*sent = append(*sent, to)
		return 0, nil
	}
}

// TestDroppedSessionContinuesFanout is the regression test for the old
// speaker bug: a failed write to one peer must not abort the send loop —
// later peers still get their owed UPDATEs and the drop is counted.
func TestDroppedSessionContinuesFanout(t *testing.T) {
	sys, rr, paths := star(t)
	var c Counters
	r := Single(sys, protocol.Classic, selection.Options{}).NewRouter(rr, &c)
	r.Inject(0, 0, paths[0])

	peers := sys.Peers(rr)
	if len(peers) < 2 {
		t.Fatalf("test topology needs >= 2 peers, got %v", peers)
	}
	dead := peers[0]
	var sent []bgp.NodeID
	r.Refresh(0, collect(&sent, map[bgp.NodeID]bool{dead: true}))

	if len(sent) != len(peers)-1 {
		t.Fatalf("fan-out stopped at dead session: reached %v of peers %v", sent, peers)
	}
	for _, w := range sent {
		if w == dead {
			t.Fatalf("dead peer %d got a message", dead)
		}
	}
	snap := c.Snapshot()
	if snap.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", snap.Dropped)
	}
	// The quiescence ledger: Sent counts every message handed to the
	// transport, delivered or not; the failed one shows up in Dropped.
	if snap.Sent != int64(len(peers)) {
		t.Fatalf("Sent = %d, want %d (delivered %d + dropped 1)", snap.Sent, len(peers), len(peers)-1)
	}
}

// TestMRAIDeferralLifecycle checks the core/transport MRAI contract: a
// closed window yields exactly one Deferral per peer, repeat refreshes do
// not duplicate it, and after Reopen the owed UPDATE flows.
func TestMRAIDeferralLifecycle(t *testing.T) {
	sys, rr, paths := star(t)
	var c Counters
	r := Single(sys, protocol.Classic, selection.Options{}).NewRouter(rr, &c)
	r.SetMRAI(100)

	var sent []bgp.NodeID
	send := collect(&sent, nil)

	r.Inject(0, 0, paths[0])
	if defs := r.Refresh(0, send); len(defs) != 0 {
		t.Fatalf("first refresh deferred: %+v", defs)
	}
	firstSends := len(sent)
	if firstSends == 0 {
		t.Fatal("first refresh sent nothing")
	}

	// A better route arrives inside the window: owed, but gated.
	r.Inject(10, 0, paths[1])
	defs := r.Refresh(10, send)
	if len(defs) != firstSends {
		t.Fatalf("deferrals = %d, want one per peer (%d): %+v", len(defs), firstSends, defs)
	}
	for _, d := range defs {
		if d.ReadyAt != 100 {
			t.Fatalf("ReadyAt = %d, want 100", d.ReadyAt)
		}
	}
	if len(sent) != firstSends {
		t.Fatalf("gated refresh sent messages: %v", sent)
	}
	// Repeat refresh inside the window: no duplicate deferral.
	if defs := r.Refresh(20, send); len(defs) != 0 {
		t.Fatalf("duplicate deferrals: %+v", defs)
	}
	if got := c.Deferrals.Load(); got != int64(firstSends) {
		t.Fatalf("Deferrals = %d, want %d", got, firstSends)
	}

	// Window reopens: transport calls Reopen then Refresh.
	for _, d := range defs {
		r.Reopen(d.To)
	}
	for _, w := range sys.Peers(rr) {
		r.Reopen(w)
	}
	if defs := r.Refresh(100, send); len(defs) != 0 {
		t.Fatalf("post-reopen refresh deferred: %+v", defs)
	}
	if len(sent) != 2*firstSends {
		t.Fatalf("owed updates not flushed after reopen: %d sends, want %d", len(sent), 2*firstSends)
	}
}

// TestApplyUpdateRejectsOutOfBounds: decode-side validation refuses records
// outside the topology, counts the rejection, and leaves the RIB untouched.
func TestApplyUpdateRejectsOutOfBounds(t *testing.T) {
	sys, rr, _ := star(t)
	var c Counters
	r := Single(sys, protocol.Classic, selection.Options{}).NewRouter(rr, &c)
	peer := sys.Peers(rr)[0]

	bad := &wire.Update{Announced: []wire.RouteRecord{{Prefix: 0, PathID: 99}}}
	if err := r.ApplyUpdate(0, peer, bad); err == nil {
		t.Fatal("out-of-bounds PathID accepted")
	}
	unknown := &wire.Update{Announced: []wire.RouteRecord{{Prefix: 7, PathID: 0}}}
	if err := r.ApplyUpdate(0, peer, unknown); err == nil {
		t.Fatal("unknown prefix accepted")
	}
	snap := c.Snapshot()
	if snap.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", snap.Rejected)
	}
	if snap.Received != 0 {
		t.Fatalf("Received = %d, want 0", snap.Received)
	}
	if got := r.Best(0); got != bgp.None {
		t.Fatalf("rejected update changed best route to %v", got)
	}
}

// TestEventStream checks the typed events of one inject/refresh round.
func TestEventStream(t *testing.T) {
	sys, rr, paths := star(t)
	var c Counters
	r := Single(sys, protocol.Classic, selection.Options{}).NewRouter(rr, &c)
	var kinds []EventKind
	r.Events(func(ev Event) { kinds = append(kinds, ev.Kind) })

	r.Inject(0, 0, paths[0])
	r.Refresh(0, func(bgp.NodeID, *wire.Update) (int64, error) { return 5, nil })
	r.WithdrawExternal(1, 0, paths[0])
	r.Refresh(1, func(bgp.NodeID, *wire.Update) (int64, error) { return 6, nil })

	want := []EventKind{Injected, BestChanged, UpdateSent, UpdateSent,
		Withdrawn, BestChanged, UpdateSent, UpdateSent}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

// TestNewDomainValidation: empty domains and mismatched topologies are
// rejected at construction.
func TestNewDomainValidation(t *testing.T) {
	if _, err := NewDomain(nil, protocol.Classic, selection.Options{}); err == nil {
		t.Fatal("empty domain accepted")
	}
	sysA, _, _ := star(t)
	b := topology.NewBuilder()
	c0 := b.NewCluster()
	b.Reflector("RR", c0)
	sysB, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewDomain(map[uint32]*topology.System{0: sysA, 1: sysB},
		protocol.Classic, selection.Options{})
	if err == nil {
		t.Fatal("mismatched topologies accepted")
	}
}

// TestDirtyListMergesAscendingAndCarriesOwed: the dirty list is kept in
// marking order, but a coalesced UPDATE lists prefixes ascending whatever
// order the marks arrived in, a refresh with nothing marked does nothing,
// and a prefix whose send failed is carried over — ahead of newer, lower
// marks — and re-sent by the next refresh.
func TestDirtyListMergesAscendingAndCarriesOwed(t *testing.T) {
	sys, rr, paths := star(t)
	dom, err := NewDomain(map[uint32]*topology.System{0: sys, 1: sys, 2: sys, 3: sys},
		protocol.Modified, selection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var c Counters
	r := dom.NewRouter(rr, &c)
	var got [][]uint32 // per sent UPDATE, its announced prefixes in record order
	fail := false
	send := func(_ bgp.NodeID, upd *wire.Update) (int64, error) {
		if fail {
			return -1, errors.New("session torn down")
		}
		var ps []uint32
		for _, rec := range upd.Announced {
			ps = append(ps, rec.Prefix)
		}
		got = append(got, ps)
		return 0, nil
	}
	r.Refresh(0, send) // the all-dirty first pass over empty RIBs
	if len(got) != 0 {
		t.Fatalf("empty RIBs sent %v", got)
	}

	r.Inject(1, 3, paths[0])
	r.Inject(1, 1, paths[0])
	fail = true
	r.Refresh(1, send) // both stay owed
	fail = false
	r.Inject(2, 2, paths[0])
	r.Inject(2, 0, paths[0])
	r.Refresh(2, send)
	want := []uint32{0, 1, 2, 3}
	if len(got) != len(sys.Peers(rr)) {
		t.Fatalf("sent %d UPDATEs, want one per peer (%d)", len(got), len(sys.Peers(rr)))
	}
	for _, ps := range got {
		if !slices.Equal(ps, want) {
			t.Fatalf("UPDATE lists prefixes %v, want %v", ps, want)
		}
	}
	got = nil
	r.Refresh(3, send)
	if len(got) != 0 || len(r.dirtyIdx) != 0 {
		t.Fatalf("clean router refreshed: sent %v, dirty list %v", got, r.dirtyIdx)
	}
}
