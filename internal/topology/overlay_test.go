package topology

import (
	"strings"
	"testing"

	"repro/internal/bgp"
)

// overlayBase builds a small system for the exit-overlay tests: one
// cluster, one reflector, two linked clients, two exits at the reflector.
func overlayBase(t *testing.T) (*System, bgp.NodeID) {
	t.Helper()
	b := NewBuilder()
	c0 := b.NewCluster()
	rr := b.Reflector("RR", c0)
	c1 := b.Client("c1", c0)
	c2 := b.Client("c2", c0)
	b.Link(rr, c1, 10).Link(rr, c2, 10)
	b.Exit(rr, ExitSpec{NextAS: 1, MED: 10})
	b.Exit(rr, ExitSpec{NextAS: 1, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys, rr
}

// TestWithExitsOverlay: an overlay shares the session graph by identity,
// carries its own normalized exit set, and leaves the base untouched.
func TestWithExitsOverlay(t *testing.T) {
	sys, rr := overlayBase(t)
	ov, err := sys.WithExits([]PrefixExit{
		{At: rr, Spec: ExitSpec{NextAS: 2, MED: 3}},
		{At: rr, Spec: ExitSpec{NextAS: 2, MED: 1, NextHopID: 77, TieBreak: 4, ASPathLen: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.SharesGraph(ov) || !ov.SharesGraph(sys) {
		t.Fatal("overlay does not share the base graph")
	}
	if sys.NumExits() != 2 {
		t.Fatalf("base exit set changed: %d exits", sys.NumExits())
	}
	if ov.NumExits() != 2 {
		t.Fatalf("overlay has %d exits, want 2", ov.NumExits())
	}
	// Normalization: IDs are positional, the zero next-hop and tie-break
	// get the builder's defaults, AS-path length floors at one.
	e0, e1 := ov.Exits()[0], ov.Exits()[1]
	if e0.ID != 0 || e1.ID != 1 {
		t.Fatalf("overlay IDs not positional: %d, %d", e0.ID, e1.ID)
	}
	if e0.NextHopID != 2000 || e0.TieBreak != -1 || e0.ASPathLen != 1 {
		t.Fatalf("exit 0 defaults not applied: %+v", e0)
	}
	if e1.NextHopID != 77 || e1.TieBreak != 4 || e1.ASPathLen != 2 {
		t.Fatalf("exit 1 explicit attributes lost: %+v", e1)
	}
	if got := ov.MyExits(rr); len(got) != 2 {
		t.Fatalf("MyExits(rr) = %v, want both overlay exits", got)
	}

	// A second overlay of the same base shares the graph with the first.
	ov2, err := sys.WithExits([]PrefixExit{{At: rr, Spec: ExitSpec{NextAS: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if !ov.SharesGraph(ov2) {
		t.Fatal("sibling overlays do not share the graph")
	}

	// Independently built but equal systems do not claim graph sharing.
	other, _ := overlayBase(t)
	if sys.SharesGraph(other) {
		t.Fatal("independently built systems claim a shared graph")
	}
}

// TestWithExitsRejectsInvalid: out-of-range exit points and negative
// attributes fail construction.
func TestWithExitsRejectsInvalid(t *testing.T) {
	sys, rr := overlayBase(t)
	for _, at := range []bgp.NodeID{99, -1} {
		if _, err := sys.WithExits([]PrefixExit{{At: at}}); err == nil {
			t.Fatalf("out-of-range exit point %d accepted", at)
		}
	}
	if _, err := sys.WithExits([]PrefixExit{{At: rr, Spec: ExitSpec{MED: -1}}}); err == nil {
		t.Fatal("negative MED accepted")
	}
}

// TestBuildSpecAll: the JSON form's prefixExits build into a base plus
// shared-graph overlays, and unknown node names are rejected with the
// prefix identified.
func TestBuildSpecAll(t *testing.T) {
	spec := &Spec{
		Clusters: []ClusterSpec{{Reflectors: []string{"RR"}, Clients: []string{"c1"}}},
		Links:    []LinkSpec{{A: "RR", B: "c1", Cost: 5}},
		Exits:    []ExitJSON{{At: "RR", NextAS: 1, MED: 2}},
		PrefixExits: [][]ExitJSON{
			{{At: "c1", NextAS: 2, MED: 1}, {At: "RR", NextAS: 2, MED: 0}},
			{{At: "RR", NextAS: 3}},
		},
	}
	systems, err := BuildSpecAll(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 3 {
		t.Fatalf("built %d systems, want 3", len(systems))
	}
	for p, sys := range systems[1:] {
		if !systems[0].SharesGraph(sys) {
			t.Fatalf("prefix %d does not share the base graph", p+1)
		}
	}
	if systems[1].NumExits() != 2 || systems[2].NumExits() != 1 {
		t.Fatalf("overlay exit counts %d/%d, want 2/1",
			systems[1].NumExits(), systems[2].NumExits())
	}

	spec.PrefixExits[1][0].At = "nope"
	_, err = BuildSpecAll(spec)
	if err == nil || !strings.Contains(err.Error(), "prefix 2") {
		t.Fatalf("unknown node: got %v, want an error naming prefix 2", err)
	}
}

// TestBuildSpecAllSinglePrefix: without prefixExits the result is exactly
// the base system.
func TestBuildSpecAllSinglePrefix(t *testing.T) {
	spec := &Spec{
		Clusters: []ClusterSpec{{Reflectors: []string{"RR"}, Clients: []string{"c1"}}},
		Links:    []LinkSpec{{A: "RR", B: "c1", Cost: 5}},
		Exits:    []ExitJSON{{At: "RR", NextAS: 1}},
	}
	systems, err := BuildSpecAll(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 1 {
		t.Fatalf("built %d systems, want 1", len(systems))
	}
}
