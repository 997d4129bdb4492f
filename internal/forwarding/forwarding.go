// Package forwarding computes the *real* routes of Section 7: the
// hop-by-hop paths packets actually take, which may differ from the path
// the source believes they take because every intermediate router forwards
// according to its own best route (Figure 12). It detects the routing loops
// of Figure 14 and checks the loop-freedom guarantees of Lemmas 7.6/7.7.
package forwarding

import (
	"fmt"
	"strings"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/topology"
)

// Hop is one step of a real route.
type Hop struct {
	Node bgp.NodeID
	// Exit is the exit path by which Node leaves AS0, or bgp.None when the
	// packet is handed to the next hop inside the AS.
	Exit bgp.PathID
}

// Trace is the outcome of forwarding one packet from a source router.
type Trace struct {
	Source bgp.NodeID
	Hops   []Hop
	// Looped is true when the packet revisited a router (a forwarding
	// loop); ExitPath is then bgp.None.
	Looped bool
	// Blackholed is true when some router on the way had no best route or
	// no IGP path to its exit point.
	Blackholed bool
	// ExitPath is the exit path by which the packet left AS0, when it did.
	ExitPath bgp.PathID
}

// String renders the trace as v0 -> v2 -> exit(p3).
func (t Trace) String() string {
	var b strings.Builder
	for i, h := range t.Hops {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "v%d", h.Node)
	}
	switch {
	case t.Looped:
		b.WriteString(" -> LOOP")
	case t.Blackholed:
		b.WriteString(" -> BLACKHOLE")
	default:
		fmt.Fprintf(&b, " -> exit(p%d)", t.ExitPath)
	}
	return b.String()
}

// Plane captures the forwarding decisions implied by a routing snapshot:
// each router forwards toward the exit point of its own best route along
// its deterministic IGP shortest path.
type Plane struct {
	sys  *topology.System
	best []bgp.PathID
}

// NewPlane builds a forwarding plane from a protocol snapshot.
func NewPlane(sys *topology.System, snap protocol.Snapshot) *Plane {
	return &Plane{sys: sys, best: append([]bgp.PathID(nil), snap.Best...)}
}

// NextHop returns the router u hands packets for d to, or -1 when u exits
// the AS itself (its best route's exit point is u) and -2 when u drops the
// packet (no route, or exit unreachable).
func (p *Plane) NextHop(u bgp.NodeID) bgp.NodeID {
	id := p.best[u]
	if id == bgp.None {
		return -2
	}
	exit := p.sys.Exit(id).ExitPoint
	if exit == u {
		return -1
	}
	nh := p.sys.Paths().NextHop(u, exit)
	if nh < 0 {
		return -2
	}
	return nh
}

// Forward traces a packet injected at source u to destination d.
func (p *Plane) Forward(u bgp.NodeID) Trace {
	t := Trace{Source: u}
	visited := make(map[bgp.NodeID]bool)
	cur := u
	for {
		if visited[cur] {
			t.Looped = true
			t.ExitPath = bgp.None
			return t
		}
		visited[cur] = true
		nh := p.NextHop(cur)
		switch nh {
		case -1:
			t.Hops = append(t.Hops, Hop{Node: cur, Exit: p.best[cur]})
			t.ExitPath = p.best[cur]
			return t
		case -2:
			t.Hops = append(t.Hops, Hop{Node: cur, Exit: bgp.None})
			t.Blackholed = true
			t.ExitPath = bgp.None
			return t
		default:
			t.Hops = append(t.Hops, Hop{Node: cur, Exit: bgp.None})
			cur = nh
		}
	}
}

// Loops returns the sources whose packets loop inside the AS.
func (p *Plane) Loops() []bgp.NodeID {
	var out []bgp.NodeID
	for u := 0; u < p.sys.N(); u++ {
		if p.Forward(bgp.NodeID(u)).Looped {
			out = append(out, bgp.NodeID(u))
		}
	}
	return out
}

// LoopFree reports whether no source's packets loop.
func (p *Plane) LoopFree() bool { return len(p.Loops()) == 0 }

// Lemma76Report separates genuine violations of Lemma 7.6 from the known
// equal-metric edge case.
//
// The paper's proof of Lemma 7.6 dismisses its Condition 3 (equal metric
// at the intermediate router, decided by learnedFrom) by arguing the same
// tie would resolve the same way at the source. That argument implicitly
// assumes learnedFrom is intrinsic to the route — as in the Section 5
// construction, where each route carries a "uniquely defined integer". In
// the operational protocol learnedFrom is the *announcing peer's* BGP
// identifier, which differs from router to router, so two routers can
// resolve an exact metric tie differently. The packet then deflects to the
// intermediate router's (equally good) exit; no loop arises, but the
// lemma's literal conclusion fails. MetricTies records those cases; Strict
// records everything else, which the lemma genuinely forbids.
type Lemma76Report struct {
	Strict     []string
	MetricTies []string
}

// CheckLemma76 verifies the statement of Lemma 7.6 on the snapshot: for
// every router u with best route exiting at v, every intermediate node w on
// SP(u, v) either selects the same exit path as u or is itself the exit
// point of its own best route. It returns the list of violations,
// including the equal-metric tie deflections (see Lemma76Report).
func (p *Plane) CheckLemma76() []string {
	r := p.CheckLemma76Detailed()
	return append(append([]string(nil), r.Strict...), r.MetricTies...)
}

// CheckLemma76Detailed classifies Lemma 7.6 violations (see Lemma76Report).
func (p *Plane) CheckLemma76Detailed() Lemma76Report {
	var rep Lemma76Report
	for u := 0; u < p.sys.N(); u++ {
		uid := bgp.NodeID(u)
		id := p.best[u]
		if id == bgp.None {
			continue
		}
		exit := p.sys.Exit(id)
		v := exit.ExitPoint
		for _, w := range p.sys.Paths().Path(uid, v) {
			if w == uid || w == v {
				continue
			}
			wb := p.best[w]
			if wb == id {
				continue
			}
			if wb != bgp.None && p.sys.Exit(wb).ExitPoint == w {
				continue
			}
			msg := fmt.Sprintf("u=v%d exit=p%d intermediate w=v%d picks p%d", u, id, w, wb)
			if wb != bgp.None && p.sys.Metric(w, p.sys.Exit(wb)) == p.sys.Metric(w, exit) {
				rep.MetricTies = append(rep.MetricTies, msg)
			} else {
				rep.Strict = append(rep.Strict, msg)
			}
		}
	}
	return rep
}

// checkLemma77 verifies the stronger statement of Lemma 7.7, which holds
// when all exit costs are zero and all IGP edge costs are strictly
// positive: every node w on SP(u, exitPoint(best(u))) selects the same exit
// path as u. It returns the list of violations.
func (p *Plane) checkLemma77() []string {
	var bad []string
	for u := 0; u < p.sys.N(); u++ {
		uid := bgp.NodeID(u)
		id := p.best[u]
		if id == bgp.None {
			continue
		}
		v := p.sys.Exit(id).ExitPoint
		for _, w := range p.sys.Paths().Path(uid, v) {
			if w == uid {
				continue
			}
			if p.best[w] != id {
				bad = append(bad, fmt.Sprintf("u=v%d exit=p%d node w=v%d picks p%d", u, id, w, p.best[w]))
			}
		}
	}
	return bad
}
