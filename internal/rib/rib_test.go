package rib

import (
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

func fig14RIB(t *testing.T, name string, policy protocol.Policy) (*figures.Fig, *RIB) {
	t.Helper()
	f := figures.Fig14()
	return f, New(f.Sys, policy, selection.Options{}, f.Node(name))
}

// update is one peer's non-empty diff from a refresh round.
type update struct {
	To       bgp.NodeID
	Announce []bgp.PathID
	Withdraw []bgp.PathID
}

// refresh drives the shipped refresh surface the way package router does —
// RecomputeBest, PrepareFlush, then DiffInto and ApplyDiff per peer — and
// returns the UPDATEs owed, every send succeeding.
func refresh(r *RIB) (bestChanged bool, updates []update) {
	bestChanged = r.RecomputeBest()
	r.PrepareFlush()
	for _, w := range r.pg.Peers() {
		ann, wd := r.DiffInto(w, nil, nil)
		if len(ann) > 0 || len(wd) > 0 {
			r.ApplyDiff(w, ann, wd)
			updates = append(updates, update{To: w, Announce: ann, Withdraw: wd})
		}
	}
	return bestChanged, updates
}

func TestEmptyRIB(t *testing.T) {
	f, r := fig14RIB(t, "RR1", protocol.Classic)
	if r.Best() != bgp.None {
		t.Fatal("empty RIB has a best route")
	}
	if _, ok := r.BestRoute(); ok {
		t.Fatal("empty RIB materialised a route")
	}
	if !r.Possible().Empty() || !r.MyExits().Empty() {
		t.Fatal("empty RIB has paths")
	}
	if r.ID() != f.Node("RR1") {
		t.Fatal("ID wrong")
	}
}

func TestInjectAndRefresh(t *testing.T) {
	f, r := fig14RIB(t, "RR1", protocol.Classic)
	r.Inject(f.Path("r1"))
	changed, updates := refresh(r)
	if !changed {
		t.Fatal("injection did not flap the best route")
	}
	if r.Best() != f.Path("r1") {
		t.Fatalf("best = %d", r.Best())
	}
	// RR1's peers are RR2 and c1; its own E-BGP route goes to both.
	if len(updates) != 2 {
		t.Fatalf("updates to %d peers, want 2: %+v", len(updates), updates)
	}
	for _, u := range updates {
		if len(u.Announce) != 1 || u.Announce[0] != f.Path("r1") || len(u.Withdraw) != 0 {
			t.Fatalf("update = %+v", u)
		}
	}
	// A refresh is idempotent: no further diffs.
	changed, updates = refresh(r)
	if changed || len(updates) != 0 {
		t.Fatalf("second refresh: changed=%v updates=%v", changed, updates)
	}
}

func TestApplyUpdateAndWithdraw(t *testing.T) {
	f, r := fig14RIB(t, "RR1", protocol.Classic)
	r.Inject(f.Path("r1"))
	refresh(r)
	r.Learn(f.Node("RR2"), f.Path("r2"))
	changed, _ := refresh(r)
	if changed {
		t.Fatal("E-BGP route must stay best over the I-BGP one")
	}
	if !r.AdjIn(f.Node("RR2")).Contains(f.Path("r2")) {
		t.Fatal("adj-in not recorded")
	}
	// Withdraw our own; the peer's takes over.
	r.WithdrawExternal(f.Path("r1"))
	changed, updates := refresh(r)
	if !changed || r.Best() != f.Path("r2") {
		t.Fatalf("best = %d after withdrawal", r.Best())
	}
	// r2 was learned from a non-client peer: only the client c1 hears
	// about it; RR2 gets a plain withdrawal of r1.
	for _, u := range updates {
		if u.To == f.Node("RR2") {
			if len(u.Announce) != 0 || len(u.Withdraw) != 1 {
				t.Fatalf("update to RR2 = %+v", u)
			}
		}
		if u.To == f.Node("c1") {
			if len(u.Announce) != 1 || u.Announce[0] != f.Path("r2") {
				t.Fatalf("update to c1 = %+v", u)
			}
		}
	}
}

func TestApplyUpdateFromStranger(t *testing.T) {
	f, r := fig14RIB(t, "RR1", protocol.Classic)
	// c2 is not RR1's peer; its update must be dropped.
	r.Learn(f.Node("c2"), f.Path("r2"))
	if !r.Possible().Empty() {
		t.Fatal("update from non-peer accepted")
	}
}

func TestMayAnnounceRules(t *testing.T) {
	f := figures.Fig14()
	RR1, RR2, c1 := f.Node("RR1"), f.Node("RR2"), f.Node("c1")
	r1, r2 := f.Path("r1"), f.Path("r2")

	rr1 := New(f.Sys, protocol.Classic, selection.Options{}, RR1)
	rr1.Inject(r1)
	rr1.Learn(RR2, r2)

	// Own E-BGP route: to everyone.
	if !rr1.MayAnnounce(r1, RR2) || !rr1.MayAnnounce(r1, c1) {
		t.Fatal("own route must go to all peers")
	}
	// Learned from non-client RR2: to own clients only.
	if rr1.MayAnnounce(r2, RR2) {
		t.Fatal("non-client route echoed to a reflector")
	}
	if !rr1.MayAnnounce(r2, c1) {
		t.Fatal("non-client route must reach the client")
	}

	// A client never forwards learned routes.
	cl := New(f.Sys, protocol.Classic, selection.Options{}, c1)
	cl.Learn(RR1, r1)
	if cl.MayAnnounce(r1, RR1) {
		t.Fatal("client forwarded a learned route")
	}
}

func TestClientRouteReflection(t *testing.T) {
	// A reflector reflects a client's route to everyone except that client.
	sys := dualInstanceSystem(t)
	n := nodeIDs(sys)
	rr, rr2, ca, cb, p := n["rr"], n["rr2"], n["ca"], n["cb"], sys.Exits()[0].ID
	r := New(sys, protocol.Classic, selection.Options{}, rr)
	r.Learn(ca, p)
	refresh(r)
	if r.MayAnnounce(p, ca) {
		t.Fatal("client route echoed to originator")
	}
	if !r.MayAnnounce(p, cb) || !r.MayAnnounce(p, rr2) {
		t.Fatal("client route must be reflected to other peers")
	}
}

func TestDualInstanceKeepsClientClassification(t *testing.T) {
	// The same path arrives from both a mesh peer and a client — two route
	// instances. The announcement rules apply per instance, so the client
	// copy keeps licensing reflection everywhere even though the mesh peer
	// sorts first. (Classifying by the first holder instead livelocks a
	// reflector pair at scale: each reclassifies the path as mesh-learned
	// when the other's reflection arrives, withdraws it from the mesh, loses
	// the mesh copy, and flips back.)
	sys := dualInstanceSystem(t)
	n := nodeIDs(sys)
	rr, rr2, ca, cb, p := n["rr"], n["rr2"], n["ca"], n["cb"], sys.Exits()[0].ID
	r := New(sys, protocol.Classic, selection.Options{}, rr)
	r.Learn(ca, p)
	r.Learn(rr2, p)
	refresh(r)
	if !r.MayAnnounce(p, rr2) {
		t.Fatal("client-learned route withdrawn from the mesh when a redundant mesh copy arrived")
	}
	if r.MayAnnounce(p, ca) {
		t.Fatal("client route echoed to its originator")
	}
	if !r.MayAnnounce(p, cb) {
		t.Fatal("client route must reach the sibling client")
	}
	// The mesh copy alone reverts to non-client rules: downward only.
	r.Unlearn(ca, p)
	if r.MayAnnounce(p, rr2) {
		t.Fatal("mesh-only route echoed to a reflector")
	}
	if !r.MayAnnounce(p, cb) {
		t.Fatal("mesh-only route must still flow downward")
	}
}

func TestWaltonPolicyAdvertisesPerAS(t *testing.T) {
	// Two same-cluster clients with routes through different ASes: the
	// Walton reflector advertises both, classic only the best.
	b := topology.NewBuilder()
	k := b.NewCluster()
	k2 := b.NewCluster()
	rr := b.Reflector("rr", k)
	ca := b.Client("ca", k)
	cb := b.Client("cb", k)
	rr2 := b.Reflector("rr2", k2)
	b.Link(rr, ca, 1).Link(rr, cb, 2).Link(rr, rr2, 1)
	pa := b.Exit(ca, topology.ExitSpec{NextAS: 1})
	pb := b.Exit(cb, topology.ExitSpec{NextAS: 2})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy protocol.Policy
		wantB  bool
	}{{protocol.Classic, false}, {protocol.Walton, true}, {protocol.Modified, true}} {
		r := New(sys, tc.policy, selection.Options{}, rr)
		r.Learn(ca, pa)
		r.Learn(cb, pb)
		_, updates := refresh(r)
		var toRR2 []bgp.PathID
		for _, u := range updates {
			if u.To == rr2 {
				toRR2 = u.Announce
			}
		}
		if !slices.Contains(toRR2, pa) {
			t.Fatalf("%v: best route pa not announced", tc.policy)
		}
		if hasB := slices.Contains(toRR2, pb); hasB != tc.wantB {
			t.Fatalf("%v: pb announced=%v, want %v", tc.policy, hasB, tc.wantB)
		}
	}
}

func TestLearnedFromPrefersLowestPeerID(t *testing.T) {
	// When two peers advertise the same path, attribution uses the
	// smaller BGP identifier; with a TieBreak it is fixed.
	f := figures.Fig2()
	RR1 := f.Node("RR1")
	r := New(f.Sys, protocol.Classic, selection.Options{}, RR1)
	r.Learn(f.Node("c1"), f.Path("r1"))
	refresh(r)
	route, ok := r.BestRoute()
	if !ok {
		t.Fatal("no best route")
	}
	if route.LearnedFrom != f.Sys.BGPID(f.Node("c1")) {
		t.Fatalf("learnedFrom = %d", route.LearnedFrom)
	}
}
