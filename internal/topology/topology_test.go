package topology

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bgp"
)

// twoClusters builds a reference system: cluster 0 = {R0, c0a, c0b},
// cluster 1 = {R1, c1a}, a chain of physical links, and one exit per
// client plus one at R1.
func twoClusters(t *testing.T) (*System, map[string]bgp.NodeID, map[string]bgp.PathID) {
	t.Helper()
	b := NewBuilder()
	k0 := b.NewCluster()
	k1 := b.NewCluster()
	r0 := b.Reflector("R0", k0)
	c0a := b.Client("c0a", k0)
	c0b := b.Client("c0b", k0)
	r1 := b.Reflector("R1", k1)
	c1a := b.Client("c1a", k1)
	b.Link(r0, c0a, 1).Link(r0, c0b, 2).Link(r0, r1, 3).Link(r1, c1a, 4)
	b.ClientSession(c0a, c0b)
	pa := b.Exit(c0a, ExitSpec{NextAS: 1, MED: 0})
	pb := b.Exit(c0b, ExitSpec{NextAS: 2, MED: 5})
	pr := b.Exit(r1, ExitSpec{NextAS: 1, MED: 1})
	pc := b.Exit(c1a, ExitSpec{NextAS: 3, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]bgp.NodeID{"R0": r0, "c0a": c0a, "c0b": c0b, "R1": r1, "c1a": c1a}
	paths := map[string]bgp.PathID{"pa": pa, "pb": pb, "pr": pr, "pc": pc}
	return sys, nodes, paths
}

func TestBuilderSessions(t *testing.T) {
	sys, n, _ := twoClusters(t)
	// Reflector mesh.
	if !sys.HasSession(n["R0"], n["R1"]) {
		t.Fatal("missing reflector mesh session")
	}
	// Client-reflector within cluster.
	for _, c := range []string{"c0a", "c0b"} {
		if !sys.HasSession(n[c], n["R0"]) {
			t.Fatalf("missing client session %s-R0", c)
		}
		if sys.HasSession(n[c], n["R1"]) {
			t.Fatalf("client %s must not peer with other cluster's reflector", c)
		}
	}
	// Declared client-client session.
	if !sys.HasSession(n["c0a"], n["c0b"]) {
		t.Fatal("missing declared client-client session")
	}
	// No cross-cluster client sessions.
	if sys.HasSession(n["c0a"], n["c1a"]) {
		t.Fatal("cross-cluster client session must not exist")
	}
	// No self sessions.
	if sys.HasSession(n["R0"], n["R0"]) {
		t.Fatal("self session")
	}
	// Peers sorted.
	peers := sys.Peers(n["R0"])
	for i := 1; i < len(peers); i++ {
		if peers[i-1] >= peers[i] {
			t.Fatalf("peers not sorted: %v", peers)
		}
	}
}

func TestBuilderValidationErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := NewBuilder().Build(); err == nil {
			t.Fatal("empty system accepted")
		}
	})
	t.Run("no reflector", func(t *testing.T) {
		b := NewBuilder()
		k := b.NewCluster()
		b.Client("c", k)
		if _, err := b.Build(); err == nil {
			t.Fatal("reflector-less cluster accepted")
		}
	})
	t.Run("empty cluster", func(t *testing.T) {
		b := NewBuilder()
		b.NewCluster()
		k := b.NewCluster()
		b.Reflector("r", k)
		if _, err := b.Build(); err == nil {
			t.Fatal("empty cluster accepted")
		}
	})
	t.Run("disconnected", func(t *testing.T) {
		b := NewBuilder()
		k := b.NewCluster()
		b.Reflector("r", k)
		b.Client("c", k)
		if _, err := b.Build(); err == nil {
			t.Fatal("disconnected physical graph accepted")
		}
	})
	t.Run("duplicate name", func(t *testing.T) {
		b := NewBuilder()
		k := b.NewCluster()
		b.Reflector("r", k)
		b.Reflector("r", k)
		if _, err := b.Build(); err == nil {
			t.Fatal("duplicate name accepted")
		}
	})
	t.Run("bad client session", func(t *testing.T) {
		b := NewBuilder()
		k0 := b.NewCluster()
		k1 := b.NewCluster()
		r0 := b.Reflector("r0", k0)
		r1 := b.Reflector("r1", k1)
		c0 := b.Client("c0", k0)
		c1 := b.Client("c1", k1)
		b.Link(r0, r1, 1).Link(r0, c0, 1).Link(r1, c1, 1)
		b.ClientSession(c0, c1) // different clusters: invalid
		if _, err := b.Build(); err == nil {
			t.Fatal("cross-cluster client session accepted")
		}
	})
	t.Run("duplicate bgp id", func(t *testing.T) {
		b := NewBuilder()
		k := b.NewCluster()
		r := b.Reflector("r", k)
		c := b.Client("c", k)
		b.Link(r, c, 1)
		b.SetBGPID(r, 42)
		b.SetBGPID(c, 42)
		if _, err := b.Build(); err == nil {
			t.Fatal("duplicate BGP id accepted")
		}
	})
	t.Run("unknown cluster", func(t *testing.T) {
		b := NewBuilder()
		b.Reflector("r", 3)
		if _, err := b.Build(); err == nil {
			t.Fatal("node in unknown cluster accepted")
		}
	})
	t.Run("negative attribute", func(t *testing.T) {
		b := NewBuilder()
		k := b.NewCluster()
		r := b.Reflector("r", k)
		c := b.Client("c", k)
		b.Link(r, c, 1)
		b.Exit(r, ExitSpec{NextAS: 1, MED: -1})
		if _, err := b.Build(); err == nil {
			t.Fatal("negative MED accepted")
		}
	})
}

func TestTransfersCases(t *testing.T) {
	sys, n, p := twoClusters(t)
	exit := func(name string) bgp.ExitPath { return sys.Exit(p[name]) }

	// Case 1: own E-BGP route goes to any peer.
	if !sys.Transfers(n["c0a"], n["R0"], exit("pa")) {
		t.Fatal("case 1: client must announce own exit to its reflector")
	}
	if !sys.Transfers(n["c0a"], n["c0b"], exit("pa")) {
		t.Fatal("case 1: client must announce own exit over client-client session")
	}
	if !sys.Transfers(n["R1"], n["R0"], exit("pr")) {
		t.Fatal("case 1: reflector must announce own exit to peer reflector")
	}
	// No session, no transfer.
	if sys.Transfers(n["c0a"], n["c1a"], exit("pa")) {
		t.Fatal("transfer without session")
	}
	// Case 2: reflector to reflector across clusters, exit at own client.
	if !sys.Transfers(n["R0"], n["R1"], exit("pa")) {
		t.Fatal("case 2: reflector must reflect client route to other reflectors")
	}
	if !sys.Transfers(n["R1"], n["R0"], exit("pc")) {
		t.Fatal("case 2: reflector must reflect client route to other reflectors")
	}
	// Case 2 negative: exit at a client of the *other* cluster.
	if sys.Transfers(n["R0"], n["R1"], exit("pc")) {
		t.Fatal("case 2: must not reflect a route exiting in the receiver's cluster")
	}
	// Case 3: reflector down to client, but never the client's own path.
	if !sys.Transfers(n["R0"], n["c0a"], exit("pb")) {
		t.Fatal("case 3: reflector must forward to client")
	}
	if !sys.Transfers(n["R0"], n["c0a"], exit("pc")) {
		t.Fatal("case 3: reflector must forward other-cluster routes to client")
	}
	if sys.Transfers(n["R0"], n["c0a"], exit("pa")) {
		t.Fatal("case 3: reflector must not echo the client's own path")
	}
	// Clients never forward learned routes.
	if sys.Transfers(n["c0a"], n["c0b"], exit("pc")) {
		t.Fatal("client forwarded a non-own route")
	}
	if sys.Transfers(n["c0a"], n["R0"], exit("pb")) {
		t.Fatal("client forwarded a non-own route to its reflector")
	}
}

func TestLevels(t *testing.T) {
	sys, n, p := twoClusters(t)
	pa := sys.Exit(p["pa"]) // exits at c0a (client, cluster 0)
	wants := map[string]int{"c0a": 0, "R0": 1, "c0b": 2, "R1": 2, "c1a": 3}
	for name, want := range wants {
		if got := sys.level(pa, n[name]); got != want {
			t.Fatalf("level(pa, %s) = %d, want %d", name, got, want)
		}
	}
	pr := sys.Exit(p["pr"]) // exits at R1 (reflector, cluster 1)
	wants = map[string]int{"R1": 0, "c1a": 2, "R0": 2, "c0a": 3, "c0b": 3}
	for name, want := range wants {
		if got := sys.level(pr, n[name]); got != want {
			t.Fatalf("level(pr, %s) = %d, want %d", name, got, want)
		}
	}
}

func TestTransfersRespectLevels(t *testing.T) {
	// Lemma 7.1: transfers only go from lower to higher level.
	sys, _, _ := twoClusters(t)
	for _, p := range sys.Exits() {
		for u := 0; u < sys.N(); u++ {
			for v := 0; v < sys.N(); v++ {
				uID, vID := bgp.NodeID(u), bgp.NodeID(v)
				if sys.Transfers(uID, vID, p) && sys.level(p, uID) >= sys.level(p, vID) {
					t.Fatalf("transfer %d->%d of p%d violates level order (%d >= %d)",
						u, v, p.ID, sys.level(p, uID), sys.level(p, vID))
				}
			}
		}
	}
}

func TestMetricAndRoute(t *testing.T) {
	sys, n, p := twoClusters(t)
	// R0 -> c1a: R0-R1 (3) + R1-c1a (4) = 7.
	pc := sys.Exit(p["pc"])
	if m := sys.Metric(n["R0"], pc); m != 7 {
		t.Fatalf("Metric = %d, want 7", m)
	}
	r := sys.Route(n["R0"], pc, 99)
	if r.Metric != 7 || r.LearnedFrom != 99 || r.At != n["R0"] || r.EBGP() {
		t.Fatalf("Route = %+v", r)
	}
	// At the exit point the metric is just the exit cost.
	if m := sys.Metric(n["c1a"], pc); m != pc.ExitCost {
		t.Fatalf("Metric at exit = %d", m)
	}
}

func TestMyExitsAndSets(t *testing.T) {
	sys, n, p := twoClusters(t)
	got := sys.MyExits(n["c0a"])
	if len(got) != 1 || got[0] != p["pa"] {
		t.Fatalf("MyExits(c0a) = %v", got)
	}
	if sys.MyExitSet(n["R0"]).Len() != 0 {
		t.Fatal("R0 should have no exits")
	}
	all := sys.AllExitSet()
	if all.Len() != 4 {
		t.Fatalf("AllExitSet = %v", all)
	}
}

func TestNodeByNameAndMisc(t *testing.T) {
	sys, n, _ := twoClusters(t)
	id, ok := sys.NodeByName("c0b")
	if !ok || id != n["c0b"] {
		t.Fatalf("NodeByName = %d, %v", id, ok)
	}
	if _, ok := sys.NodeByName("nope"); ok {
		t.Fatal("unknown name found")
	}
	if sys.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d", sys.NumClusters())
	}
	if sys.Role(n["R0"]) != Reflector || sys.Role(n["c0a"]) != Client {
		t.Fatal("roles wrong")
	}
	if Reflector.String() != "reflector" || Client.String() != "client" {
		t.Fatal("Role.String wrong")
	}
	members := sys.ClusterMembers(sys.Cluster(n["R0"]))
	if len(members) != 3 {
		t.Fatalf("cluster members = %v", members)
	}
}

func TestFullMesh(t *testing.T) {
	b, ids := FullMesh("x", "y", "z")
	b.Link(ids[0], ids[1], 1).Link(ids[1], ids[2], 1)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		for j := range ids {
			if i != j && !sys.HasSession(ids[i], ids[j]) {
				t.Fatalf("full mesh missing session %d-%d", i, j)
			}
		}
	}
	for _, id := range ids {
		if sys.Role(id) != Reflector {
			t.Fatal("full-mesh nodes must be reflectors")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sys, _, _ := twoClusters(t)
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	sys2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.N() != sys.N() || sys2.NumExits() != sys.NumExits() || sys2.NumClusters() != sys.NumClusters() {
		t.Fatal("shape changed over round trip")
	}
	for u := 0; u < sys.N(); u++ {
		uid := bgp.NodeID(u)
		u2, ok := sys2.NodeByName(sys.Name(uid))
		if !ok {
			t.Fatalf("node %q lost", sys.Name(uid))
		}
		if sys2.Role(u2) != sys.Role(uid) || sys2.BGPID(u2) != sys.BGPID(uid) {
			t.Fatalf("node %q attributes changed", sys.Name(uid))
		}
		for v := 0; v < sys.N(); v++ {
			vid := bgp.NodeID(v)
			v2, _ := sys2.NodeByName(sys.Name(vid))
			if sys.HasSession(uid, vid) != sys2.HasSession(u2, v2) {
				t.Fatalf("session %q-%q changed", sys.Name(uid), sys.Name(vid))
			}
			if sys.Phys().EdgeCost(uid, vid) != sys2.Phys().EdgeCost(u2, v2) {
				t.Fatalf("link cost %q-%q changed", sys.Name(uid), sys.Name(vid))
			}
		}
	}
	// Exit attributes preserved (order preserved by construction).
	for i, p := range sys.Exits() {
		q := sys2.Exit(bgp.PathID(i))
		if p.LocalPref != q.LocalPref || p.ASPathLen != q.ASPathLen || p.NextAS != q.NextAS ||
			p.MED != q.MED || p.ExitCost != q.ExitCost || p.TieBreak != q.TieBreak {
			t.Fatalf("exit %d changed: %+v vs %+v", i, p, q)
		}
		if sys.Name(p.ExitPoint) != sys2.Name(q.ExitPoint) {
			t.Fatalf("exit %d moved", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"unknownField": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{"clusters":[{"reflectors":["r"]}],"links":[{"a":"r","b":"ghost","cost":1}],"exits":[]}`)); err == nil {
		t.Fatal("unknown node name accepted")
	}
}
