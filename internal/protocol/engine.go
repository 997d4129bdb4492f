// Package protocol implements the paper's formal execution model of I-BGP
// with route reflection (Sections 4 and 6): discrete time, activation
// sequences, the Transfer announcement relation, and per-router state
// (PossibleExits, BestRoute, and — for the modified protocol — GoodExits).
//
// Three advertisement policies are provided:
//
//   - Classic: each router announces only the exit path of its single best
//     route (standard I-BGP, Section 4);
//   - Walton: route reflectors announce their best route through each
//     neighbouring AS when its LOCAL-PREF and AS-PATH length match the
//     overall best (the Walton et al. proposal, Section 8);
//   - Modified: every router announces the full MED-survivor set
//     S^B = Choose^B(PossibleExits) (the paper's solution, Section 6).
package protocol

import (
	"fmt"
	"strings"

	"repro/internal/bgp"
	"repro/internal/selection"
	"repro/internal/topology"
)

// Policy selects the advertisement behaviour of the routers.
type Policy int

const (
	// Classic is standard I-BGP: advertise the single best route.
	Classic Policy = iota
	// Walton is the Walton et al. modification: reflectors advertise the
	// best route per neighbouring AS; clients behave classically.
	Walton
	// Modified is the paper's protocol: advertise all MED survivors.
	Modified
	// Adaptive is the triggered variant the paper sketches as future work
	// in Section 10: routers run Classic until they detect oscillation of
	// their own best route, then switch permanently to the Modified
	// advertisement. Oscillation is detected by *revisits* — the best
	// route changing back to a route held before — so ordinary cold-start
	// churn (which never revisits) does not trigger the upgrade.
	// Convergence is empirical, not proved; the E15 experiment quantifies
	// where it works and what it saves.
	Adaptive
)

// AdaptiveThreshold is the number of best-route revisits after which an
// Adaptive router starts advertising its MED-survivor set.
const AdaptiveThreshold = 3

func (p Policy) String() string {
	switch p {
	case Classic:
		return "classic"
	case Walton:
		return "walton"
	case Modified:
		return "modified"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Event observers receive protocol events from the engine.
type Event struct {
	Step      int
	Node      bgp.NodeID
	OldBest   bgp.PathID
	NewBest   bgp.PathID
	Possible  bgp.PathSet
	Advertise bgp.PathSet
}

// Engine executes the activation model over one System. It is not safe for
// concurrent use.
type Engine struct {
	sys    *topology.System
	policy Policy
	opts   selection.Options
	dom    *selection.Dominance // Choose^B over sys.Exits(); immutable, shared by clones

	myExits    []bgp.PathSet // mutable copy (withdraw/restore events)
	possible   []bgp.PathSet // PossibleExits(u, t)
	best       []bgp.PathID  // exit path of BestRoute(u, t), or None
	advertised []bgp.PathSet // paths u currently offers its peers
	learned    [][]int       // learnedFrom per (node, path); -1 unknown
	revisits   []Revisits    // Adaptive oscillation detector per node

	step     int
	observer func(Event)

	// Scratch storage for the hot path. Activations, stability checks and
	// the state codec run allocation-free by reusing these buffers; they
	// carry no state between calls and are never shared between engines
	// (Clone starts its copy with fresh scratch).
	possNext     bgp.PathSet   // next's PossibleExits(u), installed by commit
	lfNext       []int         // next's learnedFrom of u's paths
	bestNext     bgp.PathID    // next's best route of u
	advNext      bgp.PathSet   // next's advertised set of u
	advFrozen    []bgp.PathSet // pre-step advertised sets (ActivateSet, InducedConfig)
	surv         bgp.PathSet   // Choose^B of the set being decided; WaltonInto's per-AS scratch
	asIn         bgp.PathSet   // one neighbouring AS's candidates (WaltonInto)
	routeScratch []bgp.Route   // route materialisation (routesInto)
}

// New returns an engine in the paper's initial configuration:
// PossibleExits(u, 0) = MyExits(u) and BestRoute computed from it.
func New(sys *topology.System, policy Policy, opts selection.Options) *Engine {
	n := sys.N()
	e := &Engine{
		sys:        sys,
		policy:     policy,
		opts:       opts,
		dom:        selection.NewDominance(sys.Exits(), opts.MED),
		myExits:    make([]bgp.PathSet, n),
		possible:   make([]bgp.PathSet, n),
		best:       make([]bgp.PathID, n),
		advertised: make([]bgp.PathSet, n),
		learned:    make([][]int, n),
		revisits:   make([]Revisits, n),
		lfNext:     make([]int, sys.NumExits()),
	}
	for u := 0; u < n; u++ {
		e.myExits[u] = sys.MyExitSet(bgp.NodeID(u))
		e.learned[u] = make([]int, sys.NumExits())
	}
	e.ResetAll()
	return e
}

// Sys returns the underlying system.
func (e *Engine) Sys() *topology.System { return e.sys }

// Policy returns the advertisement policy.
func (e *Engine) Policy() Policy { return e.policy }

// Options returns the selection options.
func (e *Engine) Options() selection.Options { return e.opts }

// Observe registers a callback invoked after every node update.
func (e *Engine) Observe(fn func(Event)) { e.observer = fn }

// Step returns the number of node activations executed so far.
func (e *Engine) Step() int { return e.step }

// ResetAll restores the initial configuration (every router knows exactly
// its own current MyExits), as after a whole-AS cold start.
func (e *Engine) ResetAll() {
	for u := range e.possible {
		e.ResetNode(bgp.NodeID(u))
	}
}

// ResetNode models a crash-and-restart of router u: all learned state is
// lost — including the adaptive-policy revisit history — and u retains only
// its own E-BGP routes: a gather against no advertisements.
func (e *Engine) ResetNode(u bgp.NodeID) {
	e.revisits[u] = Revisits{}
	e.next(u, nil, false)
	e.commit(u)
}

// Withdraw removes an exit path from the system input: the exit point stops
// considering it its own (an E-BGP withdrawal). Copies of the path held by
// other routers persist until flushed (Lemma 7.2).
func (e *Engine) Withdraw(id bgp.PathID) {
	p := e.sys.Exit(id)
	e.myExits[p.ExitPoint].Remove(id)
}

// Restore re-injects a previously withdrawn exit path.
func (e *Engine) Restore(id bgp.PathID) {
	p := e.sys.Exit(id)
	e.myExits[p.ExitPoint].Add(id)
}

// MyExits returns the current (possibly withdrawn-from) exit set of u.
func (e *Engine) MyExits(u bgp.NodeID) bgp.PathSet { return e.myExits[u].Clone() }

// PossibleExits returns PossibleExits(u) in the current configuration.
func (e *Engine) PossibleExits(u bgp.NodeID) bgp.PathSet { return e.possible[u].Clone() }

// Advertised returns the set of exit paths u currently offers its peers.
func (e *Engine) Advertised(u bgp.NodeID) bgp.PathSet { return e.advertised[u].Clone() }

// bestRoute returns BestRoute(u) in the current configuration.
func (e *Engine) bestRoute(u bgp.NodeID) (bgp.Route, bool) {
	id := e.best[u]
	if id == bgp.None {
		return bgp.Route{}, false
	}
	return e.sys.Route(u, e.sys.Exit(id), e.learned[u][id]), true
}

// next computes u's next state against the advertised sets adv into the
// next-state fields — the whole router step: gather PossibleExits and
// learnedFrom, decide, work out the revisit detector's would-be upgrade and
// compute the advertisement — and reports whether it differs from u's
// current state. It changes no model state; commit installs the result. A
// probe only needs the answer, so it stops once PossibleExits has moved:
// the state then changes whatever the decision says.
func (e *Engine) next(u bgp.NodeID, adv []bgp.PathSet, probe bool) bool {
	e.gather(u, adv)
	moved := !e.possNext.Equal(e.possible[u])
	if moved && probe {
		return true
	}
	e.dom.SurvivorsInto(&e.surv, e.possNext)
	e.bestNext = bgp.None
	if w, ok := selection.BestOfSurvivors(e.routesInto(u, e.surv, e.lfNext), e.opts.Order); ok {
		e.bestNext = w.Path.ID // rules 4-6 over the survivors: the full procedure
	}
	routes := func(s bgp.PathSet) []bgp.Route { return e.routesInto(u, s, e.lfNext) }
	upgraded := e.revisits[u].upgradedAfter(e.policy, e.best[u], e.bestNext)
	e.policy.AdvertiseInto(&e.advNext, e.sys.Role(u), upgraded, e.bestNext,
		e.possNext, &e.surv, &e.asIn, e.dom, e.opts.Order, routes)
	return moved || e.bestNext != e.best[u] || !e.advNext.Equal(e.advertised[u])
}

// routesInto materialises the routes of the paths in s at u, with
// learnedFrom attribution from lf, into the engine's route scratch slice.
// The result is valid until the next routesInto call.
func (e *Engine) routesInto(u bgp.NodeID, s bgp.PathSet, lf []int) []bgp.Route {
	e.routeScratch = e.routeScratch[:0]
	s.ForEach(func(id bgp.PathID) {
		e.routeScratch = append(e.routeScratch, e.sys.Route(u, e.sys.Exit(id), lf[id]))
	})
	return e.routeScratch
}

// commit installs the state the last next call computed for u. It is the
// one place a router's model state changes.
func (e *Engine) commit(u bgp.NodeID) {
	e.revisits[u].Note(e.policy, e.best[u], e.bestNext)
	e.best[u] = e.bestNext
	e.possible[u], e.possNext = e.possNext, e.possible[u]
	e.advertised[u], e.advNext = e.advNext, e.advertised[u]
	e.learned[u], e.lfNext = e.lfNext, e.learned[u]
}

// gather computes u's next PossibleExits into possNext and the learnedFrom
// of each path it holds into lfNext: u's own exits plus everything its
// peers offer in advertised that the Transfer relation lets through. A nil
// advertised offers nothing.
func (e *Engine) gather(u bgp.NodeID, advertised []bgp.PathSet) {
	dst, lf := &e.possNext, e.lfNext
	dst.Copy(e.myExits[u])
	for i := range lf {
		lf[i] = -1
	}
	dst.ForEach(func(id bgp.PathID) {
		lf[id] = ownLearnedFrom(e.sys.Exit(id))
	})
	if advertised == nil {
		return
	}
	for _, w := range e.sys.Peers(u) {
		bid := e.sys.BGPID(w)
		advertised[w].ForEach(func(id bgp.PathID) {
			p := e.sys.Exit(id)
			if !e.sys.Transfers(w, u, p) {
				return
			}
			dst.Add(id)
			if p.TieBreak >= 0 {
				lf[id] = p.TieBreak
			} else if (lf[id] < 0 || bid < lf[id]) && p.ExitPoint != u {
				lf[id] = bid
			}
		})
	}
}

// Activate performs one activation of node u against the current advertised
// sets of its peers and reports whether u's state changed.
func (e *Engine) Activate(u bgp.NodeID) bool {
	return e.activateAgainst(u, e.advertised)
}

func (e *Engine) activateAgainst(u bgp.NodeID, adv []bgp.PathSet) bool {
	oldBest := e.best[u]
	changed := e.next(u, adv, false)
	e.commit(u)
	e.step++
	if e.observer != nil {
		e.observer(Event{
			Step:      e.step,
			Node:      u,
			OldBest:   oldBest,
			NewBest:   e.best[u],
			Possible:  e.possible[u].Clone(),
			Advertise: e.advertised[u].Clone(),
		})
	}
	return changed
}

// ActivateSet performs a simultaneous activation of a set of nodes: every
// member gathers from the advertised sets as they stood before the step, as
// in the paper's activation-set semantics. It reports whether any member
// changed.
func (e *Engine) ActivateSet(set []bgp.NodeID) bool {
	if len(set) == 1 {
		return e.Activate(set[0])
	}
	frozen := e.frozenAdvertised(e.advertised)
	changed := false
	for _, u := range set {
		if e.activateAgainst(u, frozen) {
			changed = true
		}
	}
	return changed
}

// frozenAdvertised copies adv into the engine's advFrozen scratch so a
// multi-node step can gather against the pre-step advertisements while
// commit swaps the live ones underneath. Callers must take the copy once
// at the start of the step; activateAgainst never writes into advFrozen.
func (e *Engine) frozenAdvertised(adv []bgp.PathSet) []bgp.PathSet {
	if len(e.advFrozen) < len(adv) {
		e.advFrozen = make([]bgp.PathSet, len(adv))
	}
	for i := range adv {
		e.advFrozen[i].Copy(adv[i])
	}
	return e.advFrozen[:len(adv)]
}

// WouldChange reports whether activating u right now would alter u's state,
// without performing the activation: it runs Activate's step and only
// compares the result.
func (e *Engine) WouldChange(u bgp.NodeID) bool { return e.next(u, e.advertised, true) }

// Stable reports whether the current configuration is a fixed point: no
// node's state would change under any further activation. This is the
// polynomial-time stability certificate used by the NP-completeness
// argument of Section 5.
func (e *Engine) Stable() bool {
	for u := 0; u < e.sys.N(); u++ {
		if e.WouldChange(bgp.NodeID(u)) {
			return false
		}
	}
	return true
}

// Valid reports whether the current configuration is valid in the sense of
// Section 4: every path in any PossibleExits set is still in the MyExits of
// its exit point (no stale withdrawn paths linger).
func (e *Engine) Valid() bool {
	for u := range e.possible {
		for _, id := range e.possible[u].IDs() {
			p := e.sys.Exit(id)
			if !e.myExits[p.ExitPoint].Contains(id) {
				return false
			}
		}
	}
	return true
}

// Upgraded reports whether node u has switched to survivor advertisement
// under the Adaptive policy.
func (e *Engine) Upgraded(u bgp.NodeID) bool { return e.revisits[u].Upgraded() }

// Flaps returns the number of best-route revisits node u has seen — its
// best route moving back to a route it held before. Only the Adaptive
// policy counts them; under the others it is 0.
func (e *Engine) Flaps(u bgp.NodeID) int { return int(e.revisits[u].count) }

// Snapshot captures the externally visible routing outcome.
type Snapshot struct {
	Best       []bgp.PathID
	Possible   []bgp.PathSet
	Advertised []bgp.PathSet
}

// SnapshotInto captures the current outcome into s, reusing s's storage: it
// does not allocate once s has been filled for a system of the same size.
func (e *Engine) SnapshotInto(s *Snapshot) {
	n := len(e.possible)
	s.Best = append(s.Best[:0], e.best...)
	if cap(s.Possible) < n {
		s.Possible = make([]bgp.PathSet, n)
	}
	s.Possible = s.Possible[:n]
	if cap(s.Advertised) < n {
		s.Advertised = make([]bgp.PathSet, n)
	}
	s.Advertised = s.Advertised[:n]
	for i := 0; i < n; i++ {
		s.Possible[i].Copy(e.possible[i])
		s.Advertised[i].Copy(e.advertised[i])
	}
}

// Equal reports whether two snapshots describe the same configuration.
func (s Snapshot) Equal(t Snapshot) bool {
	if len(s.Best) != len(t.Best) {
		return false
	}
	for i := range s.Best {
		if s.Best[i] != t.Best[i] ||
			!s.Possible[i].Equal(t.Possible[i]) ||
			!s.Advertised[i].Equal(t.Advertised[i]) {
			return false
		}
	}
	return true
}

// BestEqual reports whether two snapshots agree on every router's best
// route (ignoring the bookkeeping sets).
func (s Snapshot) BestEqual(t Snapshot) bool {
	if len(s.Best) != len(t.Best) {
		return false
	}
	for i := range s.Best {
		if s.Best[i] != t.Best[i] {
			return false
		}
	}
	return true
}

// String renders the snapshot's best routes.
func (s Snapshot) String() string {
	parts := make([]string, len(s.Best))
	for i, b := range s.Best {
		parts[i] = fmt.Sprintf("v%d→p%d", i, b)
	}
	return strings.Join(parts, " ")
}

// RestoreFrom loads the configuration in s, captured from an engine over
// the same system, into the engine without allocating: the engine's own
// sets absorb the snapshot's contents. The snapshot is not aliased and
// stays valid.
func (e *Engine) RestoreFrom(s *Snapshot) {
	for u := range e.possible {
		e.possible[u].Copy(s.Possible[u])
		e.advertised[u].Copy(s.Advertised[u])
		e.best[u] = s.Best[u]
	}
}

// InducedConfig loads the configuration induced by assuming every node
// currently advertises the given sets: each node's PossibleExits is
// regathered from adv and its best route and advertised set recomputed. It
// returns whether the recomputed advertised sets equal adv — i.e., whether
// adv is a fixed point of the protocol, which characterises the stable
// solutions. The engine is left in the induced configuration.
func (e *Engine) InducedConfig(adv []bgp.PathSet) bool {
	frozen := e.frozenAdvertised(adv)
	fixed := true
	for u := 0; u < e.sys.N(); u++ {
		e.next(bgp.NodeID(u), frozen, false)
		e.commit(bgp.NodeID(u))
		if !e.advertised[u].Equal(frozen[u]) {
			fixed = false
		}
	}
	return fixed
}

// ReceivablePaths returns the set of exit paths that could ever appear in
// PossibleExits(u): u's own exits plus every path some peer could transfer
// to u. It bounds the enumeration spaces of package explore.
func (e *Engine) ReceivablePaths(u bgp.NodeID) bgp.PathSet {
	out := e.myExits[u].Clone()
	for _, w := range e.sys.Peers(u) {
		for _, p := range e.sys.Exits() {
			if e.sys.Transfers(w, u, p) {
				out.Add(p.ID)
			}
		}
	}
	return out
}

// ownLearnedFrom returns the learnedFrom value of an exit path at its own
// exit point: the fixed tie-break when set, the external next hop's BGP
// identifier otherwise.
func ownLearnedFrom(p bgp.ExitPath) int {
	if p.TieBreak >= 0 {
		return p.TieBreak
	}
	return p.NextHopID
}
