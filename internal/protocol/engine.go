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

	myExits    []bgp.PathSet // mutable copy (withdraw/restore events)
	possible   []bgp.PathSet // PossibleExits(u, t)
	best       []bgp.PathID  // exit path of BestRoute(u, t), or None
	advertised []bgp.PathSet // paths u currently offers its peers
	learned    [][]int       // learnedFrom per (node, path); -1 unknown

	// Adaptive-policy state: per-node revisit counts, the set of best
	// routes held before, and whether the node has switched to survivor
	// advertisement.
	flaps    []int
	heldBest []bgp.PathSet
	upgraded []bool

	step     int
	observer func(Event)

	// Scratch storage for the hot path. Activations, stability checks and
	// the state codec run allocation-free by reusing these buffers; they
	// carry no state between calls and are never shared between engines
	// (Clone starts its copy with fresh scratch).
	gatherSet    bgp.PathSet     // gather target, swapped into possible[u]
	advNext      bgp.PathSet     // recompute target, swapped into advertised[u]
	advFrozen    []bgp.PathSet   // pre-step advertised sets (ActivateSet, InducedConfig)
	lfScratch    []int           // learnedFrom scratch for WouldChange
	routeScratch []bgp.Route     // candidate materialisation
	bestScratch  []bgp.Route     // selection.BestInPlace target in recompute
	pathScratch  []bgp.ExitPath  // survivor-set materialisation
	byAS         map[bgp.ASN]int // MED minima scratch for SurvivorsBInPlace
}

// New returns an engine in the paper's initial configuration:
// PossibleExits(u, 0) = MyExits(u) and BestRoute computed from it.
func New(sys *topology.System, policy Policy, opts selection.Options) *Engine {
	n := sys.N()
	e := &Engine{
		sys:        sys,
		policy:     policy,
		opts:       opts,
		myExits:    make([]bgp.PathSet, n),
		possible:   make([]bgp.PathSet, n),
		best:       make([]bgp.PathID, n),
		advertised: make([]bgp.PathSet, n),
		learned:    make([][]int, n),
		flaps:      make([]int, n),
		heldBest:   make([]bgp.PathSet, n),
		upgraded:   make([]bool, n),
	}
	for u := 0; u < n; u++ {
		e.myExits[u] = sys.MyExitSet(bgp.NodeID(u))
		e.learned[u] = make([]int, sys.NumExits())
	}
	e.lfScratch = make([]int, sys.NumExits())
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
// lost — including the adaptive-policy flap history — and u retains only
// its own E-BGP routes.
func (e *Engine) ResetNode(u bgp.NodeID) {
	e.flaps[u] = 0
	e.heldBest[u] = bgp.PathSet{}
	e.upgraded[u] = false
	e.possible[u] = e.myExits[u].Clone()
	for i := range e.learned[u] {
		e.learned[u][i] = -1
	}
	for _, id := range e.possible[u].IDs() {
		e.learned[u][id] = ownLearnedFrom(e.sys.Exit(id))
	}
	e.recompute(u)
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

// goodExitsInto adds Choose^B(PossibleExits(u)) — GoodExits(u), the set the
// modified protocol advertises from u — to out. The exit paths are
// materialised into the engine's private path scratch, which the in-place
// Choose^B may reorder freely: only the surviving IDs leave this function.
func (e *Engine) goodExitsInto(out *bgp.PathSet, u bgp.NodeID) {
	e.pathScratch = e.pathScratch[:0]
	e.possible[u].ForEach(func(id bgp.PathID) {
		e.pathScratch = append(e.pathScratch, e.sys.Exit(id))
	})
	if e.byAS == nil {
		e.byAS = make(map[bgp.ASN]int, 4)
	}
	for _, p := range selection.SurvivorsBInPlace(e.pathScratch, e.opts.MED, e.byAS) {
		out.Add(p.ID)
	}
}

// candidatesInto materialises the routes of u's PossibleExits with their
// learnedFrom attribution into the engine's route scratch slice. The result
// is valid until the next candidatesInto call.
func (e *Engine) candidatesInto(u bgp.NodeID) []bgp.Route {
	e.routeScratch = e.routeScratch[:0]
	e.possible[u].ForEach(func(id bgp.PathID) {
		e.routeScratch = append(e.routeScratch, e.sys.Route(u, e.sys.Exit(id), e.learned[u][id]))
	})
	return e.routeScratch
}

// recompute refreshes BestRoute(u) and the advertised set of u from the
// current PossibleExits(u). It returns true when either changed.
func (e *Engine) recompute(u bgp.NodeID) bool {
	oldBest := e.best[u]

	cands := e.candidatesInto(u)
	// cands must survive for WaltonSet below, so selection compacts a
	// second scratch copy rather than cands itself.
	e.bestScratch = append(e.bestScratch[:0], cands...)
	if w, ok := selection.BestInPlace(e.bestScratch, e.opts); ok {
		e.best[u] = w.Path.ID
	} else {
		e.best[u] = bgp.None
	}

	if oldBest != e.best[u] && e.best[u] != bgp.None {
		if e.heldBest[u].Contains(e.best[u]) {
			e.flaps[u]++ // a revisit: oscillation evidence
			if e.policy == Adaptive && e.flaps[u] >= AdaptiveThreshold {
				e.upgraded[u] = true
			}
		}
		e.heldBest[u].Add(e.best[u])
	}

	adv := &e.advNext
	adv.Clear()
	switch {
	case e.policy == Modified || (e.policy == Adaptive && e.upgraded[u]):
		e.goodExitsInto(adv, u)
	case e.policy == Walton && e.sys.Role(u) == topology.Reflector:
		for _, r := range selection.WaltonSet(cands, e.opts) {
			adv.Add(r.Path.ID)
		}
	default:
		adv.Add(e.best[u])
	}
	changed := oldBest != e.best[u] || !e.advertised[u].Equal(*adv)
	e.advertised[u], e.advNext = e.advNext, e.advertised[u]
	return changed
}

// gatherInto computes the new PossibleExits(u) into dst (reusing its
// storage) and records learnedFrom attribution per received path into lf
// (which must have NumExits entries): u's own exits plus everything its
// peers currently offer that the Transfer relation lets through. dst must
// not alias any of the advertised sets.
func (e *Engine) gatherInto(dst *bgp.PathSet, u bgp.NodeID, advertised []bgp.PathSet, lf []int) {
	dst.Copy(e.myExits[u])
	for i := range lf {
		lf[i] = -1
	}
	dst.ForEach(func(id bgp.PathID) {
		lf[id] = ownLearnedFrom(e.sys.Exit(id))
	})
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
	e.gatherInto(&e.gatherSet, u, adv, e.learned[u])
	samePossible := e.gatherSet.Equal(e.possible[u])
	e.possible[u], e.gatherSet = e.gatherSet, e.possible[u]
	changed := e.recompute(u) || !samePossible
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
// recompute swaps the live ones underneath. Callers must take the copy once
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
// without performing the activation.
func (e *Engine) WouldChange(u bgp.NodeID) bool {
	lf := e.lfScratch
	e.gatherInto(&e.gatherSet, u, e.advertised, lf)
	if !e.gatherSet.Equal(e.possible[u]) {
		return true
	}
	// Same PossibleExits: best/advertised can still change if attribution
	// changed for a path involved in tie-breaking.
	e.routeScratch = e.routeScratch[:0]
	e.gatherSet.ForEach(func(id bgp.PathID) {
		e.routeScratch = append(e.routeScratch, e.sys.Route(u, e.sys.Exit(id), lf[id]))
	})
	newBest := bgp.None
	if w, ok := selection.BestInPlace(e.routeScratch, e.opts); ok {
		newBest = w.Path.ID
	}
	return newBest != e.best[u]
}

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
func (e *Engine) Upgraded(u bgp.NodeID) bool { return e.upgraded[u] }

// Flaps returns the number of best-route changes node u has seen.
func (e *Engine) Flaps(u bgp.NodeID) int { return e.flaps[u] }

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
	n := e.sys.N()
	frozen := e.frozenAdvertised(adv)
	fixed := true
	for u := 0; u < n; u++ {
		id := bgp.NodeID(u)
		e.gatherInto(&e.gatherSet, id, frozen, e.learned[id])
		e.possible[id], e.gatherSet = e.gatherSet, e.possible[id]
		e.recompute(id)
		if !e.advertised[id].Equal(frozen[u]) {
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
