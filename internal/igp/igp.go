// Package igp models the physical graph G_P of Section 4: the undirected
// weighted graph of routers and physical links inside AS0, and the IGP
// shortest-path machinery the BGP selection rules consume.
//
// The paper requires the shortest path SP(u, v) between two routers to be
// chosen deterministically from the least-cost paths. This package breaks
// cost ties lexicographically, by hop count and then by node identifier
// along the path, so that the selected path does not depend on edge
// insertion order.
package igp

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bgp"
)

// Infinity is the distance reported between disconnected nodes.
const Infinity int64 = 1<<62 - 1

type edge struct {
	to bgp.NodeID
	w  int64
}

// Graph is an undirected graph with positive integer edge costs over nodes
// 0..N-1. The zero value is unusable; call New.
type Graph struct {
	n   int
	adj [][]edge
}

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]edge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge inserts an undirected edge of cost w between u and v. Costs must
// be positive (the paper models IGP metrics as positive integers). Parallel
// edges are permitted; only the cheapest matters.
func (g *Graph) AddEdge(u, v bgp.NodeID, w int64) error {
	if int(u) < 0 || int(u) >= g.n || int(v) < 0 || int(v) >= g.n {
		return fmt.Errorf("igp: edge %d-%d out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("igp: self loop at node %d", u)
	}
	if w <= 0 {
		return fmt.Errorf("igp: edge %d-%d has non-positive cost %d", u, v, w)
	}
	g.adj[u] = append(g.adj[u], edge{to: v, w: w})
	g.adj[v] = append(g.adj[v], edge{to: u, w: w})
	return nil
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v bgp.NodeID) bool {
	for _, e := range g.adj[u] {
		if e.to == v {
			return true
		}
	}
	return false
}

// EdgeCost returns the cheapest edge cost between u and v, or Infinity when
// no edge joins them.
func (g *Graph) EdgeCost(u, v bgp.NodeID) int64 {
	best := Infinity
	for _, e := range g.adj[u] {
		if e.to == v && e.w < best {
			best = e.w
		}
	}
	return best
}

// Degree returns the number of incident edges of u.
func (g *Graph) Degree(u bgp.NodeID) int { return len(g.adj[u]) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := range g.adj {
		c.adj[u] = append([]edge(nil), g.adj[u]...)
	}
	return c
}

// Connected reports whether the graph is connected (vacuously true for
// graphs with fewer than two nodes).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []bgp.NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, e.to)
			}
		}
	}
	return count == g.n
}

// ShortestPaths holds the single-source shortest path tree from one source,
// with the paper's deterministic tie-breaking baked in.
type ShortestPaths struct {
	Source bgp.NodeID
	Dist   []int64      // Dist[v] = cost of SP(Source, v); Infinity if unreachable
	Parent []bgp.NodeID // Parent[v] = predecessor of v on SP(Source, v); -1 at source/unreachable
	hops   []int
}

// Dijkstra computes shortest paths from src. Ties on cost are broken first
// by hop count and then by the smaller parent identifier, which makes the
// chosen tree independent of adjacency order.
func (g *Graph) Dijkstra(src bgp.NodeID) *ShortestPaths {
	sp := &ShortestPaths{
		Source: src,
		Dist:   make([]int64, g.n),
		Parent: make([]bgp.NodeID, g.n),
		hops:   make([]int, g.n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = Infinity
		sp.Parent[i] = -1
		sp.hops[i] = 1 << 30
	}
	if int(src) < 0 || int(src) >= g.n {
		return sp
	}
	sp.Dist[src] = 0
	sp.hops[src] = 0

	h := &nodeHeap{}
	h.push(item{node: src, dist: 0, hops: 0})
	done := make([]bool, g.n)
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			v := e.to
			if done[v] {
				continue
			}
			nd := sp.Dist[u] + e.w
			nh := sp.hops[u] + 1
			better := nd < sp.Dist[v] ||
				(nd == sp.Dist[v] && nh < sp.hops[v]) ||
				(nd == sp.Dist[v] && nh == sp.hops[v] && sp.Parent[v] >= 0 && u < sp.Parent[v])
			if better {
				sp.Dist[v] = nd
				sp.hops[v] = nh
				sp.Parent[v] = u
				h.push(item{node: v, dist: nd, hops: nh})
			}
		}
	}
	return sp
}

// PathTo returns the node sequence of SP(Source, v), inclusive of both
// endpoints, or nil when v is unreachable.
func (sp *ShortestPaths) PathTo(v bgp.NodeID) []bgp.NodeID {
	if int(v) < 0 || int(v) >= len(sp.Dist) || sp.Dist[v] == Infinity {
		return nil
	}
	var rev []bgp.NodeID
	for x := v; ; x = sp.Parent[x] {
		rev = append(rev, x)
		if x == sp.Source {
			break
		}
		if sp.Parent[x] < 0 {
			return nil
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NextHop returns the first node after Source on SP(Source, v). It returns
// Source itself when v == Source and -1 when v is unreachable.
func (sp *ShortestPaths) NextHop(v bgp.NodeID) bgp.NodeID {
	if v == sp.Source {
		return v
	}
	p := sp.PathTo(v)
	if len(p) < 2 {
		return -1
	}
	return p[1]
}

// AllPairs caches single-source trees of a graph, computed on first use.
// It is the lookup structure the protocol engines use for route metrics.
// Because the graph is undirected, cost(SP(u, v)) = cost(SP(v, u)), so
// callers read a distance from the tree rooted where it is wanted most:
// route metrics from the exit point, of which a system has few, rather
// than from each of its many routers. From is safe for concurrent use.
type AllPairs struct {
	g     *Graph
	trees []atomic.Pointer[ShortestPaths]
}

// NewAllPairs returns an empty cache over g; trees fill lazily.
func NewAllPairs(g *Graph) *AllPairs {
	return &AllPairs{g: g, trees: make([]atomic.Pointer[ShortestPaths], g.n)}
}

// From returns the shortest-path tree rooted at u. Racing first calls may
// each run Dijkstra; the trees are identical and the first one stored wins.
// The miss lives in fill so that From stays within the inliner's budget:
// route metrics read it in the protocol engines' innermost loop.
func (ap *AllPairs) From(u bgp.NodeID) (t *ShortestPaths) {
	if t = ap.trees[u].Load(); t == nil {
		return ap.fill(u)
	}
	return
}

func (ap *AllPairs) fill(u bgp.NodeID) *ShortestPaths {
	ap.trees[u].CompareAndSwap(nil, ap.g.Dijkstra(u))
	return ap.trees[u].Load()
}

// Dist returns cost(SP(u, v)), or Infinity when disconnected.
func (ap *AllPairs) Dist(u, v bgp.NodeID) int64 { return ap.From(u).Dist[v] }

// Path returns SP(u, v) inclusive of endpoints.
func (ap *AllPairs) Path(u, v bgp.NodeID) []bgp.NodeID { return ap.From(u).PathTo(v) }

// NextHop returns the first node after u on SP(u, v).
func (ap *AllPairs) NextHop(u, v bgp.NodeID) bgp.NodeID { return ap.From(u).NextHop(v) }

// ErrDisconnected is returned by CompleteMetric when the base graph does not
// connect all nodes.
var ErrDisconnected = errors.New("igp: graph is not connected")

// CompleteMetric adds, for every node pair without an edge, an edge whose
// cost equals the current shortest-path distance, as in the NP-hardness
// construction of Section 5 ("setting these costs one at a time to be equal
// to the shortest path in the graph consisting of the edges with costs so
// far defined"). The result satisfies the triangle inequality and preserves
// all shortest-path distances.
func (g *Graph) CompleteMetric() error {
	if !g.Connected() {
		return ErrDisconnected
	}
	ap := NewAllPairs(g.Clone())
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.HasEdge(bgp.NodeID(u), bgp.NodeID(v)) {
				d := ap.Dist(bgp.NodeID(u), bgp.NodeID(v))
				if err := g.AddEdge(bgp.NodeID(u), bgp.NodeID(v), d); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// item is a priority-queue entry.
type item struct {
	node bgp.NodeID
	dist int64
	hops int
}

func (a item) less(b item) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

// nodeHeap is a minimal binary min-heap specialised to item, avoiding the
// interface boxing of container/heap in the hot path.
type nodeHeap struct {
	xs []item
}

func (h *nodeHeap) len() int { return len(h.xs) }

func (h *nodeHeap) push(it item) {
	h.xs = append(h.xs, it)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.xs[i].less(h.xs[p]) {
			break
		}
		h.xs[i], h.xs[p] = h.xs[p], h.xs[i]
		i = p
	}
}

func (h *nodeHeap) pop() item {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.xs) && h.xs[l].less(h.xs[small]) {
			small = l
		}
		if r < len(h.xs) && h.xs[r].less(h.xs[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.xs[i], h.xs[small] = h.xs[small], h.xs[i]
		i = small
	}
	return top
}
