// Package confed models BGP confederations, the other full-mesh
// alternative the paper discusses: the AS is partitioned into member
// sub-ASes, each internally fully meshed, joined by confed-BGP sessions
// between border routers. The Cisco field notice and McPherson et al.
// report the same MED-induced persistent oscillations for confederations;
// the paper's positive results cover route reflection only, so this
// package both reproduces the confederation oscillation and — as an
// extension — shows that the paper's advertise-the-MED-survivors idea
// settles confederations too.
//
// Model notes (following RFC 5065 where the paper is silent): LOCAL_PREF
// and MED cross member-AS boundaries unchanged; the NEXT-HOP is preserved,
// so IGP metrics to the original exit point govern rule 5 throughout the
// confederation; the AS_CONFED_SEQUENCE is appended at each border
// crossing, used for loop prevention and ignored by route selection.
package confed

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bgp"
	"repro/internal/igp"
	"repro/internal/protocol"
	"repro/internal/selection"
)

// Policy selects the advertisement behaviour.
type Policy int

const (
	// Classic announces only the best route (standard confed-BGP).
	Classic Policy = iota
	// Survivors announces every MED survivor — the paper's modification
	// transplanted to confederations.
	Survivors
)

func (p Policy) String() string {
	if p == Survivors {
		return "survivors"
	}
	return "classic"
}

// System describes one confederation.
type System struct {
	names   []string
	subAS   []int // member sub-AS per node
	numSub  int
	phys    *igp.Graph
	ap      *igp.AllPairs
	peers   [][]bgp.NodeID // all BGP peers (internal mesh + confed sessions)
	confed  [][]bool       // confed[u][v]: u-v is a confed-BGP (border) session
	exits   []bgp.ExitPath
	exitsAt [][]bgp.PathID
	bgpIDs  []int
}

// N returns the number of routers.
func (s *System) N() int { return len(s.subAS) }

// Name returns the name of node u.
func (s *System) Name(u bgp.NodeID) string { return s.names[u] }

// SubAS returns the member sub-AS of node u.
func (s *System) SubAS(u bgp.NodeID) int { return s.subAS[u] }

// NumSubAS returns the number of member sub-ASes.
func (s *System) NumSubAS() int { return s.numSub }

// Exits returns all exit paths.
func (s *System) Exits() []bgp.ExitPath { return s.exits }

// Exit returns one exit path.
func (s *System) Exit(id bgp.PathID) bgp.ExitPath { return s.exits[id] }

// Peers returns u's BGP peers in increasing order.
func (s *System) Peers(u bgp.NodeID) []bgp.NodeID { return s.peers[u] }

// IsConfedSession reports whether u-v is a border (confed-BGP) session.
func (s *System) IsConfedSession(u, v bgp.NodeID) bool { return s.confed[u][v] }

// Metric returns the IGP cost from u to p's exit point plus the exit cost,
// read from the tree rooted at the exit point (the graph is undirected).
func (s *System) Metric(u bgp.NodeID, p bgp.ExitPath) int64 {
	d := s.ap.From(p.ExitPoint).Dist[u]
	if d == igp.Infinity {
		return igp.Infinity
	}
	return d + p.ExitCost
}

// Builder assembles a confederation.
type Builder struct {
	names  []string
	subAS  []int
	numSub int
	links  []struct {
		u, v bgp.NodeID
		w    int64
	}
	sessions []struct{ u, v bgp.NodeID }
	exits    []bgp.ExitPath
	err      error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// NewSubAS starts a new member sub-AS and returns its index.
func (b *Builder) NewSubAS() int {
	b.numSub++
	return b.numSub - 1
}

// Router adds a router to a member sub-AS.
func (b *Builder) Router(name string, sub int) bgp.NodeID {
	if b.err != nil {
		return -1
	}
	if sub < 0 || sub >= b.numSub {
		b.err = fmt.Errorf("confed: router %q references unknown sub-AS %d", name, sub)
		return -1
	}
	for _, n := range b.names {
		if n == name {
			b.err = fmt.Errorf("confed: duplicate router name %q", name)
			return -1
		}
	}
	id := bgp.NodeID(len(b.names))
	b.names = append(b.names, name)
	b.subAS = append(b.subAS, sub)
	return id
}

// Link adds a physical IGP link.
func (b *Builder) Link(u, v bgp.NodeID, w int64) *Builder {
	if b.err == nil {
		b.links = append(b.links, struct {
			u, v bgp.NodeID
			w    int64
		}{u, v, w})
	}
	return b
}

// ConfedSession adds a confed-BGP session between border routers of
// different sub-ASes.
func (b *Builder) ConfedSession(u, v bgp.NodeID) *Builder {
	if b.err == nil {
		b.sessions = append(b.sessions, struct{ u, v bgp.NodeID }{u, v})
	}
	return b
}

// Exit injects an exit path at router u (attributes as in topology.ExitSpec).
func (b *Builder) Exit(u bgp.NodeID, lp, aspl int, nextAS bgp.ASN, med int, ec int64) bgp.PathID {
	if b.err != nil {
		return bgp.None
	}
	if int(u) < 0 || int(u) >= len(b.names) {
		b.err = fmt.Errorf("confed: Exit references unknown router %d", u)
		return bgp.None
	}
	if aspl <= 0 {
		aspl = 1
	}
	id := bgp.PathID(len(b.exits))
	b.exits = append(b.exits, bgp.ExitPath{
		ID: id, LocalPref: lp, ASPathLen: aspl, NextAS: nextAS, MED: med,
		ExitPoint: u, ExitCost: ec, NextHopID: 2000 + int(id), TieBreak: -1,
	})
	return id
}

// Build validates and returns the System.
func (b *Builder) Build() (*System, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.names)
	if n == 0 {
		return nil, fmt.Errorf("confed: no routers")
	}
	phys := igp.New(n)
	for _, l := range b.links {
		if err := phys.AddEdge(l.u, l.v, l.w); err != nil {
			return nil, err
		}
	}
	if !phys.Connected() {
		return nil, fmt.Errorf("confed: physical graph not connected")
	}
	peerAt := make([][]bool, n)
	confed := make([][]bool, n)
	for i := range peerAt {
		peerAt[i] = make([]bool, n)
		confed[i] = make([]bool, n)
	}
	// Internal full mesh within each sub-AS.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if b.subAS[u] == b.subAS[v] {
				peerAt[u][v], peerAt[v][u] = true, true
			}
		}
	}
	for _, sess := range b.sessions {
		if int(sess.u) < 0 || int(sess.u) >= n || int(sess.v) < 0 || int(sess.v) >= n {
			return nil, fmt.Errorf("confed: session references unknown router")
		}
		if b.subAS[sess.u] == b.subAS[sess.v] {
			return nil, fmt.Errorf("confed: confed session %s-%s within one sub-AS",
				b.names[sess.u], b.names[sess.v])
		}
		peerAt[sess.u][sess.v], peerAt[sess.v][sess.u] = true, true
		confed[sess.u][sess.v], confed[sess.v][sess.u] = true, true
	}
	peers := make([][]bgp.NodeID, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if peerAt[u][v] {
				peers[u] = append(peers[u], bgp.NodeID(v))
			}
		}
		sort.Slice(peers[u], func(i, j int) bool { return peers[u][i] < peers[u][j] })
	}
	exitsAt := make([][]bgp.PathID, n)
	for _, p := range b.exits {
		exitsAt[p.ExitPoint] = append(exitsAt[p.ExitPoint], p.ID)
	}
	bgpIDs := make([]int, n)
	for i := range bgpIDs {
		bgpIDs[i] = 1000 + i
	}
	return &System{
		names:   append([]string(nil), b.names...),
		subAS:   append([]int(nil), b.subAS...),
		numSub:  b.numSub,
		phys:    phys,
		ap:      igp.NewAllPairs(phys),
		peers:   peers,
		confed:  confed,
		exits:   append([]bgp.ExitPath(nil), b.exits...),
		exitsAt: exitsAt,
		bgpIDs:  bgpIDs,
	}, nil
}

// entry is one learned route instance: the confed sequence it arrived
// with, whether it was learned from an internal peer, and its attribution.
type entry struct {
	seq         []int // member sub-ASes traversed
	viaInternal bool
	lf          int
}

// Engine runs the activation model over a confederation.
type Engine struct {
	sys    *System
	policy Policy
	opts   selection.Options
	dom    *selection.Dominance // Choose^B over sys.exits

	myExits    []bgp.PathSet
	possible   []map[bgp.PathID]entry
	best       []bgp.PathID
	advertised []map[bgp.PathID]entry // current offers, with their state
}

// New returns an engine in the cold-start configuration.
func New(sys *System, policy Policy, opts selection.Options) *Engine {
	n := sys.N()
	e := &Engine{
		sys:        sys,
		policy:     policy,
		opts:       opts,
		dom:        selection.NewDominance(sys.exits, opts.MED),
		myExits:    make([]bgp.PathSet, n),
		possible:   make([]map[bgp.PathID]entry, n),
		best:       make([]bgp.PathID, n),
		advertised: make([]map[bgp.PathID]entry, n),
	}
	for u := 0; u < n; u++ {
		e.myExits[u] = bgp.NewPathSet(sys.exitsAt[u]...)
		e.resetNode(bgp.NodeID(u))
	}
	return e
}

// Sys returns the underlying system.
func (e *Engine) Sys() *System { return e.sys }

func (e *Engine) resetNode(u bgp.NodeID) {
	e.possible[u] = map[bgp.PathID]entry{}
	for _, id := range e.myExits[u].IDs() {
		e.possible[u][id] = entry{lf: e.sys.Exit(id).NextHopID}
	}
	e.recompute(u)
}

// Withdraw removes an exit path from the E-BGP input.
func (e *Engine) Withdraw(id bgp.PathID) {
	e.myExits[e.sys.Exit(id).ExitPoint].Remove(id)
}

// recompute refreshes u's best route and advertised offers: Choose^B read
// off the dominance table, then rules 4-6 over the survivors' routes.
func (e *Engine) recompute(u bgp.NodeID) {
	var possible, surv bgp.PathSet
	for id := range e.possible[u] {
		possible.Add(id)
	}
	e.dom.SurvivorsInto(&surv, possible)
	var rs []bgp.Route
	surv.ForEach(func(id bgp.PathID) {
		p := e.sys.Exit(id)
		rs = append(rs, bgp.Route{Path: p, At: u, Metric: e.sys.Metric(u, p), LearnedFrom: e.possible[u][id].lf})
	})
	if w, ok := selection.BestOfSurvivors(rs, e.opts.Order); ok {
		e.best[u] = w.Path.ID
	} else {
		e.best[u] = bgp.None
	}
	adv := map[bgp.PathID]entry{}
	switch e.policy {
	case Survivors:
		surv.ForEach(func(id bgp.PathID) { adv[id] = e.possible[u][id] })
	default:
		if e.best[u] != bgp.None {
			adv[e.best[u]] = e.possible[u][e.best[u]]
		}
	}
	e.advertised[u] = adv
}

// transferable reports whether v may offer (id, ent) to peer u, and the
// entry u would record. Announcement rules:
//
//   - internal peer: only routes not learned from internal peers (own
//     E-BGP and confed-learned), seq unchanged;
//   - confed peer: any route; v's sub-AS is appended to the sequence and
//     u drops the route if its own sub-AS already appears (loop check).
func (e *Engine) transferable(v, u bgp.NodeID, id bgp.PathID, ent entry) (entry, bool) {
	if e.sys.IsConfedSession(v, u) {
		for _, s := range ent.seq {
			if s == e.sys.SubAS(u) {
				return entry{}, false // loop: u's sub-AS already traversed
			}
		}
		if e.sys.SubAS(v) == e.sys.SubAS(u) {
			return entry{}, false
		}
		seq := append(append([]int(nil), ent.seq...), e.sys.SubAS(v))
		return entry{seq: seq, viaInternal: false, lf: e.sys.bgpIDs[v]}, true
	}
	// Internal session: never forward internally-learned routes.
	if ent.viaInternal {
		return entry{}, false
	}
	if e.sys.Exit(id).ExitPoint == u {
		return entry{}, false // never echo a router's own exit
	}
	return entry{seq: append([]int(nil), ent.seq...), viaInternal: true, lf: e.sys.bgpIDs[v]}, true
}

// Activate performs one activation of node u and reports change.
func (e *Engine) Activate(u bgp.NodeID) bool {
	next := map[bgp.PathID]entry{}
	for _, id := range e.myExits[u].IDs() {
		next[id] = entry{lf: e.sys.Exit(id).NextHopID}
	}
	for _, v := range e.sys.Peers(u) {
		for id, ent := range e.advertised[v] {
			got, ok := e.transferable(v, u, id, ent)
			if !ok {
				continue
			}
			if cur, dup := next[id]; dup {
				// Keep the copy with the lower attribution; prefer the
				// non-internal copy for announcement purposes.
				if got.lf < cur.lf || (!got.viaInternal && cur.viaInternal) {
					next[id] = got
				}
				continue
			}
			next[id] = got
		}
	}
	changed := !entriesEqual(e.possible[u], next)
	oldBest := e.best[u]
	e.possible[u] = next
	e.recompute(u)
	return changed || oldBest != e.best[u]
}

func entriesEqual(a, b map[bgp.PathID]entry) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ea := range a {
		eb, ok := b[id]
		if !ok || ea.viaInternal != eb.viaInternal || ea.lf != eb.lf || len(ea.seq) != len(eb.seq) {
			return false
		}
		for i := range ea.seq {
			if ea.seq[i] != eb.seq[i] {
				return false
			}
		}
	}
	return true
}

// Best returns u's current best path.
func (e *Engine) Best(u bgp.NodeID) bgp.PathID { return e.best[u] }

// PossibleIDs returns the paths u currently knows, sorted.
func (e *Engine) PossibleIDs(u bgp.NodeID) []bgp.PathID {
	ids := make([]bgp.PathID, 0, len(e.possible[u]))
	for id := range e.possible[u] {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stable reports whether no activation changes any node.
func (e *Engine) Stable() bool {
	save := e.snapshot()
	defer e.restore(save)
	for u := 0; u < e.sys.N(); u++ {
		if e.Activate(bgp.NodeID(u)) {
			return false
		}
	}
	return true
}

type snap struct {
	possible   []map[bgp.PathID]entry
	advertised []map[bgp.PathID]entry
	best       []bgp.PathID
}

func cloneEntries(m map[bgp.PathID]entry) map[bgp.PathID]entry {
	c := make(map[bgp.PathID]entry, len(m))
	for k, v := range m {
		v.seq = append([]int(nil), v.seq...)
		c[k] = v
	}
	return c
}

func (e *Engine) snapshot() snap {
	s := snap{best: append([]bgp.PathID(nil), e.best...)}
	for u := range e.possible {
		s.possible = append(s.possible, cloneEntries(e.possible[u]))
		s.advertised = append(s.advertised, cloneEntries(e.advertised[u]))
	}
	return s
}

func (e *Engine) restore(s snap) {
	copy(e.best, s.best)
	for u := range e.possible {
		e.possible[u] = cloneEntries(s.possible[u])
		e.advertised[u] = cloneEntries(s.advertised[u])
	}
}

// StateKey canonically identifies the configuration.
func (e *Engine) StateKey() string {
	var b strings.Builder
	for u := range e.possible {
		fmt.Fprintf(&b, "%d[", e.best[u])
		for _, id := range e.PossibleIDs(bgp.NodeID(u)) {
			ent := e.possible[u][id]
			fmt.Fprintf(&b, "%d:%v:%d:%v,", id, ent.seq, ent.lf, ent.viaInternal)
		}
		b.WriteString("]")
		ids := make([]bgp.PathID, 0, len(e.advertised[u]))
		for id := range e.advertised[u] {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(&b, "%v;", ids)
	}
	return b.String()
}

// Result reports a run.
type Result struct {
	Outcome protocol.Outcome
	Steps   int
	Best    []bgp.PathID
}

// Run drives the engine under the schedule until stability, a proved state
// cycle (periodic schedules), or step exhaustion.
func Run(e *Engine, sch protocol.Schedule, maxSteps int) Result {
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	res := Result{}
	period := sch.Period()
	seen := map[string]bool{}
	inPeriod := 0
	quiet := map[bgp.NodeID]bool{}
	n := e.sys.N()
	if e.Stable() {
		res.Outcome = protocol.Converged
		res.Best = append([]bgp.PathID(nil), e.best...)
		return res
	}
	for res.Steps < maxSteps {
		set := sch.Next()
		res.Steps++
		changed := false
		for _, u := range set {
			if e.Activate(u) {
				changed = true
			}
		}
		if changed {
			for k := range quiet {
				delete(quiet, k)
			}
		} else {
			for _, u := range set {
				quiet[u] = true
			}
			if len(quiet) == n {
				res.Outcome = protocol.Converged
				res.Best = append([]bgp.PathID(nil), e.best...)
				return res
			}
		}
		if period > 0 {
			inPeriod++
			if inPeriod == period {
				inPeriod = 0
				key := e.StateKey()
				if seen[key] {
					res.Outcome = protocol.Cycled
					res.Best = append([]bgp.PathID(nil), e.best...)
					return res
				}
				seen[key] = true
			}
		}
	}
	res.Outcome = protocol.Exhausted
	if e.Stable() {
		res.Outcome = protocol.Converged
	}
	res.Best = append([]bgp.PathID(nil), e.best...)
	return res
}
