package rib

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// How the holder learned the route (Section 2's three source classes).
const (
	ebgp          = iota // injected at the holder itself
	fromServed           // some copy came from a peer the holder serves
	fromNonClient        // every copy came from a peer the holder does not serve
)

// What the peer is to the holder.
const (
	servedMember = iota // the holder reflects for the peer (a client or a sub-cluster's reflector)
	ownReflector        // the peer reflects for the holder
	meshPeer            // a top-level reflector of another cluster
	coReflector         // a top-level reflector of the holder's own cluster
)

// cell is one combination the announcement rule decides on.
type cell struct {
	source, rel int
	origin      bool // the peer is the one the route was learned from
}

// section2 is the announcement rule of Section 2 written out cell by cell
// (true = announce): an E-BGP route goes to every peer; a route from a
// served peer goes to every peer except the one it came from; a route from
// a non-client peer goes down to served members only. The eight absent
// cells cannot occur: an E-BGP route has no originating peer, a served-peer
// route originates at a served member, a non-client route never does. Note
// the co-reflector cell under fromServed: the operational rule announces,
// as Section 2 states it, where the model's topology.Transfers prunes the
// copy because a co-reflector hears the shared client directly — the
// deliberate difference between the two formulations (DESIGN.md).
var section2 = map[cell]bool{
	{ebgp, servedMember, false}: true,
	{ebgp, ownReflector, false}: true,
	{ebgp, meshPeer, false}:     true,
	{ebgp, coReflector, false}:  true,

	{fromServed, servedMember, false}: true,
	{fromServed, servedMember, true}:  false,
	{fromServed, ownReflector, false}: true,
	{fromServed, meshPeer, false}:     true,
	{fromServed, coReflector, false}:  true,

	{fromNonClient, servedMember, false}: true,
	{fromNonClient, ownReflector, false}: false,
	{fromNonClient, ownReflector, true}:  false,
	{fromNonClient, meshPeer, false}:     false,
	{fromNonClient, meshPeer, true}:      false,
	{fromNonClient, coReflector, false}:  false,
	{fromNonClient, coReflector, true}:   false,
}

// announceCase is one concrete (holder, source, peer) triple of a fixture,
// labelled by hand with the section2 cell it realises.
type announceCase struct {
	holder string
	from   []string // peers the holder learned the route from; empty = E-BGP
	to     string
	cell
}

// threeLevelSystem is the deep-hierarchy fixture with a co-reflector at the
// top so every relation exists in one system:
//
//	K0 {T0, T0b} ── K1 {M0, mc0, mc1} ── K2 {L0, lc0}
//	K3 {T1}
func threeLevelSystem(t *testing.T) *topology.System {
	t.Helper()
	b := topology.NewBuilder()
	k0 := b.NewCluster()
	k1 := b.SubCluster(k0)
	k2 := b.SubCluster(k1)
	k3 := b.NewCluster()
	T0 := b.Reflector("T0", k0)
	T0b := b.Reflector("T0b", k0)
	M0 := b.Reflector("M0", k1)
	mc0 := b.Client("mc0", k1)
	mc1 := b.Client("mc1", k1)
	L0 := b.Reflector("L0", k2)
	lc0 := b.Client("lc0", k2)
	T1 := b.Reflector("T1", k3)
	b.Link(T0, T0b, 1).Link(T0, T1, 1).Link(T0, M0, 1).Link(T0b, M0, 1)
	b.Link(M0, mc0, 1).Link(M0, mc1, 1).Link(M0, L0, 1).Link(L0, lc0, 1)
	b.Exit(lc0, topology.ExitSpec{NextAS: 1})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// dualInstanceSystem is PR 7's meshed-reflector fixture: rr can hold the
// same path from its client ca and from the mesh peer rr2 at once.
func dualInstanceSystem(t *testing.T) *topology.System {
	t.Helper()
	b := topology.NewBuilder()
	k := b.NewCluster()
	k2 := b.NewCluster()
	rr := b.Reflector("rr", k)
	rr2 := b.Reflector("rr2", k2) // lower node id than the clients: it sorts first among rr's peers
	ca := b.Client("ca", k)
	cb := b.Client("cb", k)
	b.Link(rr, rr2, 1).Link(rr, ca, 1).Link(rr, cb, 1)
	b.Exit(ca, topology.ExitSpec{NextAS: 1})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// nodeIDs indexes a system's routers by name.
func nodeIDs(sys *topology.System) map[string]bgp.NodeID {
	node := make(map[string]bgp.NodeID, sys.N())
	for u := 0; u < sys.N(); u++ {
		node[sys.Name(bgp.NodeID(u))] = bgp.NodeID(u)
	}
	return node
}

func TestAnnouncementRuleTable(t *testing.T) {
	fixtures := []struct {
		name  string
		sys   *topology.System
		cases []announceCase
	}{
		{"fig13-two-level", figures.Fig13().Sys, []announceCase{
			{"RR1", nil, "C1_0", cell{ebgp, servedMember, false}},
			{"RR1", nil, "RR2", cell{ebgp, meshPeer, false}},
			{"C1_0", nil, "RR1", cell{ebgp, ownReflector, false}},
			{"RR1", []string{"C1_0"}, "C1_0", cell{fromServed, servedMember, true}},
			{"RR1", []string{"C1_0"}, "C1_1", cell{fromServed, servedMember, false}},
			{"RR1", []string{"C1_0"}, "RR3", cell{fromServed, meshPeer, false}},
			{"RR1", []string{"RR2"}, "C1_1", cell{fromNonClient, servedMember, false}},
			{"RR1", []string{"RR2"}, "RR2", cell{fromNonClient, meshPeer, true}},
			{"RR1", []string{"RR2"}, "RR4", cell{fromNonClient, meshPeer, false}},
			{"C1_0", []string{"RR1"}, "RR1", cell{fromNonClient, ownReflector, true}},
		}},
		{"three-level", threeLevelSystem(t), []announceCase{
			{"T0", nil, "M0", cell{ebgp, servedMember, false}},
			{"M0", nil, "T0", cell{ebgp, ownReflector, false}},
			{"T0", nil, "T1", cell{ebgp, meshPeer, false}},
			{"T0", nil, "T0b", cell{ebgp, coReflector, false}},
			{"M0", []string{"mc0"}, "mc0", cell{fromServed, servedMember, true}},
			{"M0", []string{"mc0"}, "mc1", cell{fromServed, servedMember, false}},
			{"M0", []string{"mc0"}, "L0", cell{fromServed, servedMember, false}},
			{"M0", []string{"L0"}, "mc0", cell{fromServed, servedMember, false}},
			{"M0", []string{"L0"}, "T0b", cell{fromServed, ownReflector, false}},
			{"T0", []string{"M0"}, "T1", cell{fromServed, meshPeer, false}},
			{"T0", []string{"M0"}, "T0b", cell{fromServed, coReflector, false}},
			{"M0", []string{"T0"}, "mc1", cell{fromNonClient, servedMember, false}},
			{"M0", []string{"T0"}, "L0", cell{fromNonClient, servedMember, false}},
			{"M0", []string{"T0"}, "T0", cell{fromNonClient, ownReflector, true}},
			{"M0", []string{"T0"}, "T0b", cell{fromNonClient, ownReflector, false}},
			{"L0", []string{"M0"}, "lc0", cell{fromNonClient, servedMember, false}},
			{"T0", []string{"T1"}, "T1", cell{fromNonClient, meshPeer, true}},
			{"T0b", []string{"T0"}, "T1", cell{fromNonClient, meshPeer, false}},
			{"T0", []string{"T0b"}, "T0b", cell{fromNonClient, coReflector, true}},
			{"T0", []string{"T1"}, "T0b", cell{fromNonClient, coReflector, false}},
			{"T0", []string{"T1"}, "M0", cell{fromNonClient, servedMember, false}},
		}},
		{"dual-instance", dualInstanceSystem(t), []announceCase{
			// Both copies held: the served copy decides, so the route still
			// reaches the mesh — withdrawing it there is PR 7's livelock.
			{"rr", []string{"ca", "rr2"}, "rr2", cell{fromServed, meshPeer, false}},
			{"rr", []string{"ca", "rr2"}, "ca", cell{fromServed, servedMember, true}},
			{"rr", []string{"ca", "rr2"}, "cb", cell{fromServed, servedMember, false}},
			// The mesh copy alone is a non-client route.
			{"rr", []string{"rr2"}, "rr2", cell{fromNonClient, meshPeer, true}},
			{"rr", []string{"rr2"}, "cb", cell{fromNonClient, servedMember, false}},
		}},
	}

	covered := map[cell]bool{}
	for _, fx := range fixtures {
		sys := fx.sys
		node := nodeIDs(sys)
		path := sys.Exits()[0].ID
		for _, c := range fx.cases {
			name := fmt.Sprintf("%s/%s/from%v/to-%s", fx.name, c.holder, c.from, c.to)
			holder, to := node[c.holder], node[c.to]
			if !sys.HasSession(holder, to) {
				t.Fatalf("%s: no session to the peer", name)
			}
			checkLabels(t, name, sys, node, c)
			want, ok := section2[c.cell]
			if !ok {
				t.Fatalf("%s: labelled with a cell Section 2 rules out", name)
			}
			covered[c.cell] = true

			r := New(sys, protocol.Modified, selection.Options{}, holder)
			if c.source == ebgp {
				r.Inject(path)
			}
			for _, f := range c.from {
				r.Learn(node[f], path)
			}
			if got := r.mayAnnounce(path, to); got != want {
				t.Errorf("%s: mayAnnounce = %v, Section 2 says %v", name, got, want)
			}
		}
	}
	for cl := range section2 {
		if !covered[cl] {
			t.Errorf("no fixture exercises cell %+v", cl)
		}
	}
}

// checkLabels confirms a case's hand-written source and relation labels
// against the topology, so a mislabelled row cannot pass by reading the
// wrong cell.
func checkLabels(t *testing.T, name string, sys *topology.System, node map[string]bgp.NodeID, c announceCase) {
	t.Helper()
	holder, to := node[c.holder], node[c.to]
	source := ebgp
	if len(c.from) > 0 {
		source = fromNonClient
		for _, f := range c.from {
			if sys.ServedBy(node[f], holder) {
				source = fromServed
			}
		}
	}
	if source != c.source {
		t.Fatalf("%s: source labelled %d, topology says %d", name, c.source, source)
	}
	var rel int
	switch {
	case sys.ServedBy(to, holder):
		rel = servedMember
	case sys.ServedBy(holder, to):
		rel = ownReflector
	case sys.Cluster(holder) == sys.Cluster(to):
		rel = coReflector
	default:
		rel = meshPeer
	}
	if rel != c.rel {
		t.Fatalf("%s: relation labelled %d, topology says %d", name, c.rel, rel)
	}
	if c.origin && !slices.Contains(c.from, c.to) {
		t.Fatalf("%s: originator flag set but the peer is not a source", name)
	}
}
