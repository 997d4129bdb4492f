package protocol_test

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// learnedFromFixture: client u of the co-reflectors R1 and R2 (BGP IDs
// 1000 and 1001), and two single-reflector clusters X and Y whose own
// exits p (AS 1) and q (AS 2) tie at u on rules 1-5 (IGP cost 2 to
// either). u hears both paths from both co-reflectors, so rule 6 decides
// between them through learnedFrom alone.
func learnedFromFixture(t testing.TB) (*topology.System, map[string]bgp.NodeID, map[string]bgp.PathID) {
	t.Helper()
	b := topology.NewBuilder()
	k0, k1, k2 := b.NewCluster(), b.NewCluster(), b.NewCluster()
	r1 := b.Reflector("R1", k0)
	r2 := b.Reflector("R2", k0)
	u := b.Client("u", k0)
	x := b.Reflector("X", k1)
	y := b.Reflector("Y", k2)
	for _, r := range []bgp.NodeID{r1, r2} {
		b.Link(u, r, 1).Link(r, x, 1).Link(r, y, 1)
	}
	p := b.Exit(x, topology.ExitSpec{NextAS: 1})
	q := b.Exit(y, topology.ExitSpec{NextAS: 2})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys, map[string]bgp.NodeID{"R1": r1, "R2": r2, "u": u, "X": x, "Y": y}, map[string]bgp.PathID{"p": p, "q": q}
}

// TestLearnedFromOnlyChange: R1 stops advertising p while R2 still does, so
// u's PossibleExits stays {p, q} but p's learnedFrom rises from R1's BGP ID
// to R2's. q, still heard from R1, now wins rule 6. Under Modified u's
// advertised survivors stay {p, q}: only the best route moves, so
// WouldChange and Activate must see the change through the best route
// alone.
func TestLearnedFromOnlyChange(t *testing.T) {
	sys, n, paths := learnedFromFixture(t)
	u, p, q := n["u"], paths["p"], paths["q"]
	e := protocol.New(sys, protocol.Modified, selection.Options{})
	for changed := true; changed; {
		changed = false
		for v := 0; v < sys.N(); v++ {
			changed = e.Activate(bgp.NodeID(v)) || changed
		}
	}
	if got := e.LearnedFrom(u, p); got != sys.BGPID(n["R1"]) {
		t.Fatalf("settled: p learnedFrom %d, want R1's %d", got, sys.BGPID(n["R1"]))
	}
	if b := bestOf(e, u); b != p {
		t.Fatalf("settled: u's best p%d, want p%d (learnedFrom tie, lower PathID)", b, p)
	}
	possible, advertised := e.PossibleExits(u), e.Advertised(u)

	e.Withdraw(p)
	e.Activate(n["X"])
	e.Activate(n["R1"])
	if e.Advertised(n["R1"]).Contains(p) || !e.Advertised(n["R2"]).Contains(p) {
		t.Fatalf("R1 advertises %v, R2 %v: want p from R2 only", e.Advertised(n["R1"]), e.Advertised(n["R2"]))
	}
	if !e.WouldChange(u) {
		t.Fatal("WouldChange(u) = false, but p's learnedFrom moved and with it u's best")
	}
	if !e.Activate(u) {
		t.Fatal("Activate(u) = false, but u's best moved")
	}
	if b := bestOf(e, u); b != q {
		t.Fatalf("u's best p%d, want p%d", b, q)
	}
	if !e.PossibleExits(u).Equal(possible) || !e.Advertised(u).Equal(advertised) {
		t.Fatalf("possible %v advertised %v, want them unchanged at %v, %v",
			e.PossibleExits(u), e.Advertised(u), possible, advertised)
	}
	if e.WouldChange(u) || e.Activate(u) {
		t.Fatal("u changes again with nothing new to hear")
	}
}

// TestSnapshotEqualOneField: snapshots that differ in exactly one field at
// one router are not Equal, whichever field it is.
func TestSnapshotEqualOneField(t *testing.T) {
	sys, n, paths := learnedFromFixture(t)
	e := protocol.New(sys, protocol.Modified, selection.Options{})
	for v := 0; v < sys.N(); v++ {
		e.Activate(bgp.NodeID(v))
	}
	u := n["u"]
	var base protocol.Snapshot
	e.SnapshotInto(&base)
	for _, tc := range []struct {
		field  string
		mutate func(s *protocol.Snapshot)
	}{
		{"none", func(*protocol.Snapshot) {}},
		{"Best", func(s *protocol.Snapshot) { s.Best[u] = bgp.None }},
		{"Possible", func(s *protocol.Snapshot) { s.Possible[u].Remove(paths["q"]) }},
		{"Advertised", func(s *protocol.Snapshot) { s.Advertised[u].Add(paths["q"] + 1) }},
	} {
		var other protocol.Snapshot
		e.SnapshotInto(&other)
		tc.mutate(&other)
		if got, want := base.Equal(other), tc.field == "none"; got != want || other.Equal(base) != want {
			t.Errorf("%s differs at u: Equal = %v, want %v", tc.field, got, want)
		}
	}
}
