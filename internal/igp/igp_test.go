package igp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bgp"
)

func mustEdge(t *testing.T, g *Graph, u, v bgp.NodeID, w int64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := g.AddEdge(-1, 1, 1); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Fatal("zero cost accepted")
	}
	if err := g.AddEdge(0, 1, -5); err == nil {
		t.Fatal("negative cost accepted")
	}
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.EdgeCost(0, 1) != 2 {
		t.Fatalf("EdgeCost = %d", g.EdgeCost(0, 1))
	}
	if g.EdgeCost(0, 2) != Infinity {
		t.Fatal("missing edge should cost Infinity")
	}
}

func TestParallelEdgesCheapestWins(t *testing.T) {
	g := New(2)
	mustEdge(t, g, 0, 1, 9)
	mustEdge(t, g, 0, 1, 4)
	if g.EdgeCost(0, 1) != 4 {
		t.Fatalf("EdgeCost = %d, want 4", g.EdgeCost(0, 1))
	}
	sp := g.Dijkstra(0)
	if sp.Dist[1] != 4 {
		t.Fatalf("Dist = %d, want 4", sp.Dist[1])
	}
}

func TestConnected(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 1)
	if g.Connected() {
		t.Fatal("graph with isolated node 3 reported connected")
	}
	mustEdge(t, g, 2, 3, 1)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs must be connected")
	}
}

func TestDijkstraKnownDistances(t *testing.T) {
	// 0-1 (1), 1-2 (2), 0-2 (5), 2-3 (1)
	g := New(4)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 2)
	mustEdge(t, g, 0, 2, 5)
	mustEdge(t, g, 2, 3, 1)
	sp := g.Dijkstra(0)
	want := []int64{0, 1, 3, 4}
	for v, d := range want {
		if sp.Dist[v] != d {
			t.Fatalf("Dist[%d] = %d, want %d", v, sp.Dist[v], d)
		}
	}
	path := sp.PathTo(3)
	wantPath := []bgp.NodeID{0, 1, 2, 3}
	if len(path) != len(wantPath) {
		t.Fatalf("PathTo(3) = %v", path)
	}
	for i := range path {
		if path[i] != wantPath[i] {
			t.Fatalf("PathTo(3) = %v, want %v", path, wantPath)
		}
	}
	if nh := sp.NextHop(3); nh != 1 {
		t.Fatalf("NextHop(3) = %d, want 1", nh)
	}
	if nh := sp.NextHop(0); nh != 0 {
		t.Fatalf("NextHop(source) = %d, want 0", nh)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	sp := g.Dijkstra(0)
	if sp.Dist[2] != Infinity {
		t.Fatal("unreachable node has finite distance")
	}
	if sp.PathTo(2) != nil {
		t.Fatal("PathTo(unreachable) should be nil")
	}
	if sp.NextHop(2) != -1 {
		t.Fatal("NextHop(unreachable) should be -1")
	}
}

func TestDijkstraTieBreakHopsThenParent(t *testing.T) {
	// Two equal-cost paths 0->3: 0-1-3 (2 hops) and 0-2-3 (2 hops), plus
	// an equal-cost 3-hop path 0-1-4-3. Deterministic choice must prefer
	// fewer hops, then the smaller parent.
	g := New(5)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 3, 2)
	mustEdge(t, g, 0, 2, 1)
	mustEdge(t, g, 2, 3, 2)
	mustEdge(t, g, 1, 4, 1)
	mustEdge(t, g, 4, 3, 1)
	sp := g.Dijkstra(0)
	if sp.Dist[3] != 3 {
		t.Fatalf("Dist[3] = %d, want 3", sp.Dist[3])
	}
	path := sp.PathTo(3)
	if len(path) != 3 {
		t.Fatalf("tie-break should pick a 2-hop path, got %v", path)
	}
	if path[1] != 1 {
		t.Fatalf("tie-break should prefer parent 1, got %v", path)
	}
}

func TestDijkstraDeterministicUnderEdgePermutation(t *testing.T) {
	type e struct {
		u, v bgp.NodeID
		w    int64
	}
	edges := []e{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}, {3, 4, 2}, {1, 4, 3}, {2, 4, 3}}
	var ref *ShortestPaths
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(edges))
		g := New(5)
		for _, i := range perm {
			mustEdge(t, g, edges[i].u, edges[i].v, edges[i].w)
		}
		sp := g.Dijkstra(0)
		if ref == nil {
			ref = sp
			continue
		}
		for v := 0; v < 5; v++ {
			if sp.Dist[v] != ref.Dist[v] || sp.Parent[v] != ref.Parent[v] {
				t.Fatalf("trial %d: tree differs at node %d (parent %d vs %d)",
					trial, v, sp.Parent[v], ref.Parent[v])
			}
		}
	}
}

func TestAllPairsConsistency(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1, 2)
	mustEdge(t, g, 1, 2, 2)
	mustEdge(t, g, 2, 3, 2)
	mustEdge(t, g, 0, 3, 7)
	ap := NewAllPairs(g)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if ap.Dist(bgp.NodeID(u), bgp.NodeID(v)) != ap.Dist(bgp.NodeID(v), bgp.NodeID(u)) {
				t.Fatalf("asymmetric distance %d-%d", u, v)
			}
		}
	}
	if ap.Dist(0, 3) != 6 {
		t.Fatalf("Dist(0,3) = %d, want 6", ap.Dist(0, 3))
	}
	if nh := ap.NextHop(0, 3); nh != 1 {
		t.Fatalf("NextHop(0,3) = %d, want 1", nh)
	}
}

// TestAllPairsConcurrentFrom: goroutines racing to fill overlapping roots
// all get the same tree per root, equal to a fresh serial Dijkstra. Run
// under -race it also checks that the lazy fill is synchronised.
func TestAllPairsConcurrentFrom(t *testing.T) {
	const n, workers = 60, 8
	g := randomConnectedGraph(rand.New(rand.NewSource(3)), n)
	ap := NewAllPairs(g)
	got := make([][]*ShortestPaths, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*ShortestPaths, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker visits every root, each from a different
			// starting offset, so first fills collide.
			for i := 0; i < n; i++ {
				u := (i + w*n/workers) % n
				got[w][u] = ap.From(bgp.NodeID(u))
			}
		}(w)
	}
	wg.Wait()
	for u := 0; u < n; u++ {
		tree := ap.From(bgp.NodeID(u))
		for w := 0; w < workers; w++ {
			if got[w][u] != tree {
				t.Fatalf("root %d: worker %d got a different tree pointer", u, w)
			}
		}
		if want := g.Dijkstra(bgp.NodeID(u)); !reflect.DeepEqual(tree, want) {
			t.Fatalf("root %d: cached tree differs from a serial Dijkstra", u)
		}
	}
}

func randomConnectedGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		_ = g.AddEdge(bgp.NodeID(u), bgp.NodeID(v), int64(1+rng.Intn(20)))
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(bgp.NodeID(u), bgp.NodeID(v), int64(1+rng.Intn(20)))
		}
	}
	return g
}

func TestQuickTriangleInequality(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randomConnectedGraph(rng, n)
		ap := NewAllPairs(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for w := 0; w < n; w++ {
					duv := ap.Dist(bgp.NodeID(u), bgp.NodeID(v))
					duw := ap.Dist(bgp.NodeID(u), bgp.NodeID(w))
					dwv := ap.Dist(bgp.NodeID(w), bgp.NodeID(v))
					if duw != Infinity && dwv != Infinity && duv > duw+dwv {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPathCostMatchesDist(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randomConnectedGraph(rng, n)
		sp := g.Dijkstra(0)
		for v := 1; v < n; v++ {
			path := sp.PathTo(bgp.NodeID(v))
			if path == nil {
				return false // connected by construction
			}
			var cost int64
			for i := 1; i < len(path); i++ {
				cost += g.EdgeCost(path[i-1], path[i])
			}
			// The reconstructed path uses specific edges; its cost can
			// only match Dist if each step uses the cheapest parallel
			// edge, which EdgeCost reports.
			if cost != sp.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteMetric(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1, 3)
	mustEdge(t, g, 1, 2, 4)
	mustEdge(t, g, 2, 3, 5)
	before := NewAllPairs(g.Clone())
	if err := g.completeMetric(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v && !g.HasEdge(bgp.NodeID(u), bgp.NodeID(v)) {
				t.Fatalf("missing edge %d-%d after completion", u, v)
			}
		}
	}
	after := NewAllPairs(g)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if before.Dist(bgp.NodeID(u), bgp.NodeID(v)) != after.Dist(bgp.NodeID(u), bgp.NodeID(v)) {
				t.Fatalf("completion changed distance %d-%d", u, v)
			}
		}
	}
	// Direct edges now realise the shortest distances: triangle inequality
	// holds edge-wise.
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v && g.EdgeCost(bgp.NodeID(u), bgp.NodeID(v)) != after.Dist(bgp.NodeID(u), bgp.NodeID(v)) {
				t.Fatalf("edge %d-%d costlier than shortest path", u, v)
			}
		}
	}
}

func TestCompleteMetricDisconnected(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	if err := g.completeMetric(); err != ErrDisconnected {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	c := g.Clone()
	mustEdge(t, g, 1, 2, 1)
	if c.HasEdge(1, 2) {
		t.Fatal("clone shares adjacency with original")
	}
	if c.degree(0) != 1 || g.degree(1) != 2 {
		t.Fatal("degrees wrong after clone")
	}
}
