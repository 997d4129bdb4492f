// Package selection implements the BGP route selection procedures of the
// paper: the full six-rule Choose_best of Section 2/Figure 6, the truncated
// Choose^B of Section 6/Figure 10 (rules 1-3, the "MED survivors"), the
// alternative rule ordering of RFC 1771/[11] discussed around Figure 1(b),
// the always-compare-MED variant, and the per-neighbouring-AS computation
// used by the Walton et al. proposal (Section 8).
package selection

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bgp"
)

// Order selects how rules 4 and 5 interact (footnote 4 of the paper).
type Order int

const (
	// PaperOrder prefers E-BGP routes over I-BGP routes irrespective of the
	// IGP cost to the next hop (Cisco/Juniper behaviour; the paper's
	// default).
	PaperOrder Order = iota
	// RFCOrder picks the minimum IGP cost route first, then prefers E-BGP
	// among cost ties (the RFC 1771 reading; Figure 1(b) diverges under
	// this ordering).
	RFCOrder
)

func (o Order) String() string {
	if o == RFCOrder {
		return "rfc"
	}
	return "paper"
}

// MEDMode selects how rule 3 compares MED values.
type MEDMode int

const (
	// PerNeighborAS compares MEDs only between routes through the same
	// neighbouring AS (standard behaviour; the source of the oscillations).
	PerNeighborAS MEDMode = iota
	// AlwaysCompare compares MEDs across all routes regardless of the
	// neighbouring AS (the Cisco "always-compare-med" mitigation mentioned
	// in Section 1).
	AlwaysCompare
)

func (m MEDMode) String() string {
	if m == AlwaysCompare {
		return "always-compare-med"
	}
	return "per-neighbor-as"
}

// Options bundles the selection knobs.
type Options struct {
	Order Order
	MED   MEDMode
}

// The Route filters below index their slices rather than ranging over
// them: a bgp.Route is 96 bytes, and a by-value range copies every element
// just to read one field.

// filterMetric keeps the routes with the minimum metric (IGP cost to the
// next hop plus exit cost).
func filterMetric(rs []bgp.Route) []bgp.Route {
	best := rs[0].Metric
	for i := 1; i < len(rs); i++ {
		if v := rs[i].Metric; v < best {
			best = v
		}
	}
	n := 0
	for n < len(rs) && rs[n].Metric == best {
		n++
	}
	if n == len(rs) {
		return rs
	}
	out := rs[:n]
	for i := n + 1; i < len(rs); i++ {
		if rs[i].Metric == best {
			out = append(out, rs[i])
		}
	}
	return out
}

// filterEBGP keeps only E-BGP routes; if there are none it returns the
// input unchanged.
func filterEBGP(rs []bgp.Route) []bgp.Route {
	n := 0
	for n < len(rs) && rs[n].Path.ExitPoint == rs[n].At {
		n++
	}
	if n == len(rs) {
		return rs
	}
	out := rs[:n]
	for i := n + 1; i < len(rs); i++ {
		if rs[i].Path.ExitPoint == rs[i].At {
			out = append(out, rs[i])
		}
	}
	if len(out) == 0 {
		return rs // no E-BGP route: nothing was moved
	}
	return out
}

// Best runs the full route selection procedure over the candidate routes of
// one router and returns the winner. ok is false when cands is empty.
//
// Rules, in the paper's order: (1) highest LOCAL-PREF; (2) shortest
// AS-PATH; (3) per-neighbouring-AS minimum MED; (4)/(5) prefer E-BGP routes
// and take the minimum metric (PaperOrder) or take the minimum metric and
// prefer E-BGP among ties (RFCOrder); (6) lowest learnedFrom identifier.
// Any remaining tie breaks on PathID for determinism.
func Best(cands []bgp.Route, opts Options) (bgp.Route, bool) {
	if len(cands) == 0 {
		return bgp.Route{}, false
	}
	// One defensive copy; BestInPlace compacts it.
	rs := make([]bgp.Route, len(cands))
	copy(rs, cands)
	return BestInPlace(rs, opts)
}

// BestInPlace is Best without the defensive copy: rules 1-3 (the one body
// survivorsInPlace) and then rules 4-6 (BestOfSurvivors) reorder and
// truncate rs.
func BestInPlace(rs []bgp.Route, opts Options) (bgp.Route, bool) {
	return BestOfSurvivors(survivorsInPlace(rs, routeExit, true, opts.MED, nil), opts.Order)
}

// BestOfSurvivors is the tail of BestInPlace: rules 4-6 over routes that
// already survived rules 1-3. A caller that obtained the Choose^B
// survivors another way (the operational RIB and the model engine read
// them off a Dominance table) materialises just those routes and still
// gets exactly BestInPlace's winner: the filters are set-valued and the
// final tie-break is a total order, so neither the order of rs nor how
// rules 1-3 were evaluated can show. Like BestInPlace it reorders and
// truncates rs.
func BestOfSurvivors(rs []bgp.Route, order Order) (bgp.Route, bool) {
	if len(rs) == 0 {
		return bgp.Route{}, false
	}
	switch order {
	case RFCOrder:
		rs = filterMetric(rs)
		rs = filterEBGP(rs)
	default:
		rs = filterEBGP(rs)
		rs = filterMetric(rs)
	}
	win := 0
	for i := 1; i < len(rs); i++ {
		if rs[i].LearnedFrom < rs[win].LearnedFrom ||
			(rs[i].LearnedFrom == rs[win].LearnedFrom && rs[i].Path.ID < rs[win].Path.ID) {
			win = i
		}
	}
	return rs[win], true
}

// Survivors12 applies rules 1 and 2 of the selection procedure to exit
// paths: the routes with maximal LOCAL-PREF and, among those, minimal
// AS-PATH length. Both rules read only injection-time attributes, so the
// result is router-independent — it is the candidate set within which MED
// comparison (rule 3) and IGP metrics (rule 5) decide, and therefore the
// set the static oscillation-risk passes of package lint reason about.
// The returned slice is freshly allocated and keeps the input order.
func Survivors12(paths []bgp.ExitPath) []bgp.ExitPath {
	return survivorsInPlace(slices.Clone(paths), exitOf, false, PerNeighborAS, nil)
}

// SurvivorsB runs Choose^B (Figure 10): the prefix of the selection
// procedure through the MED rule, applied to exit paths. These are the
// routes the modified protocol advertises. The result is freshly allocated
// and sorted by PathID.
//
// Rules 1-3 read only injection-time attributes (LOCAL-PREF, AS-PATH
// length, NextAS, MED), so Choose^B is well-defined on exit paths without
// reference to a particular router.
func SurvivorsB(paths []bgp.ExitPath, mode MEDMode) []bgp.ExitPath {
	return bgp.SortPaths(survivorsInPlace(slices.Clone(paths), exitOf, true, mode, nil))
}

// SurvivorsBInPlace is Choose^B without SurvivorsB's fresh allocations:
// it compacts paths in place (reordering and truncating the slice) and
// returns the surviving prefix, UNSORTED — callers feeding a PathSet do not
// need SurvivorsB's by-ID order. byAS is a caller-owned scratch map for the
// per-neighbour-AS MED minima, cleared on entry; when it is nil, a call
// that needs one makes its own.
func SurvivorsBInPlace(paths []bgp.ExitPath, mode MEDMode, byAS map[bgp.ASN]int) []bgp.ExitPath {
	return survivorsInPlace(paths, exitOf, true, mode, byAS)
}

// survivorsInPlace is the one spelling of rules 1-3: rules 1 and 2 always,
// rule 3 when med is set. It compacts xs in place, keeping the survivors'
// order, and returns the surviving prefix. It runs over exit paths
// (exitOf) and over routes (routeExit): exit projects an element onto the
// injection-time attributes the rules read. Every Survivors* entry point
// above is a copy and/or sort around it, BestInPlace is it followed by
// BestOfSurvivors, WaltonSet runs it over the per-AS winners, and
// Dominance is tabulated from it, so Choose^B cannot drift between the
// model engines, the operational RIB and the static analyser. byAS holds the per-neighbour-AS MED minima, cleared on entry;
// when it is nil, a call that needs it makes its own.
func survivorsInPlace[T any](xs []T, exit func(*T) *bgp.ExitPath, med bool, mode MEDMode, byAS map[bgp.ASN]int) []T {
	if len(xs) == 0 {
		return nil
	}
	// Rules 1 and 2: the highest LOCAL-PREF and, among the paths that have
	// it, the shortest AS-PATH.
	bestLP, bestLen := exit(&xs[0]).LocalPref, exit(&xs[0]).ASPathLen
	for i := 1; i < len(xs); i++ {
		p := exit(&xs[i])
		if p.LocalPref > bestLP || p.LocalPref == bestLP && p.ASPathLen < bestLen {
			bestLP, bestLen = p.LocalPref, p.ASPathLen
		}
	}
	top := func(p *bgp.ExitPath) bool { return p.LocalPref == bestLP && p.ASPathLen == bestLen }
	// Rule 3, among the survivors of rules 1 and 2: the least MED through
	// each neighbouring AS, or the least of all under AlwaysCompare. The
	// two agree while the survivors share one neighbouring AS, so only
	// survivors through several ASes need the per-AS minima.
	bestMED, perAS := 0, false
	if med {
		var as bgp.ASN
		seen := false
		for i := range xs {
			switch p := exit(&xs[i]); {
			case !top(p):
			case !seen:
				bestMED, as, seen = p.MED, p.NextAS, true
			default:
				bestMED = min(bestMED, p.MED)
				perAS = perAS || mode == PerNeighborAS && p.NextAS != as
			}
		}
		if perAS {
			if byAS == nil {
				byAS = make(map[bgp.ASN]int, 4)
			}
			clear(byAS)
			for i := range xs {
				if p := exit(&xs[i]); top(p) {
					if cur, ok := byAS[p.NextAS]; !ok || p.MED < cur {
						byAS[p.NextAS] = p.MED
					}
				}
			}
		}
	}
	keep := func(p *bgp.ExitPath) bool {
		switch {
		case !top(p):
			return false
		case !med:
			return true
		case perAS:
			return p.MED == byAS[p.NextAS]
		}
		return p.MED == bestMED
	}
	n := 0 // an element already in place is not copied
	for i := range xs {
		if keep(exit(&xs[i])) {
			if n != i {
				xs[n] = xs[i]
			}
			n++
		}
	}
	return xs[:n]
}

// exitOf and routeExit are survivorsInPlace's projections for its two
// element types.
func exitOf(p *bgp.ExitPath) *bgp.ExitPath { return p }
func routeExit(r *bgp.Route) *bgp.ExitPath { return &r.Path }

// Dominance is Choose^B tabulated for one exit-path set. Rules 1-3 form a
// lexicographic preference over injection-time attributes, so they
// decompose pairwise: p survives Choose^B(S) iff no q in S eliminates p
// from Choose^B({p, q}) (DESIGN.md, "The decision kernel"). Row p is the
// set of such q, read off survivorsInPlace by probing every ordered pair —
// derived from the one rule body, not a second spelling of it. The table
// is immutable, so every router of a domain shares one per prefix.
type Dominance struct {
	w    int      // words per row
	rows []uint64 // row p is rows[p*w : (p+1)*w]
}

// NewDominance tabulates Choose^B over exits, which must be indexed by
// PathID as topology.System.Exits is.
func NewDominance(exits []bgp.ExitPath, mode MEDMode) *Dominance {
	w := (len(exits) + 63) / 64
	d := &Dominance{w: w, rows: make([]uint64, len(exits)*w)}
	byAS := make(map[bgp.ASN]int, 2)
	var pair [2]bgp.ExitPath
	for p := range exits {
		for q := range exits {
			pair[0], pair[1] = exits[p], exits[q]
			surv := survivorsInPlace(pair[:], exitOf, true, mode, byAS)
			if len(surv) == 1 && surv[0].ID == exits[q].ID {
				d.rows[p*w+q/64] |= 1 << (uint(q) % 64)
			}
		}
	}
	return d
}

// SurvivorsInto sets out to Choose^B(s) — {p in s : row p misses s} — in
// one pass of word-ANDs. A member of s outside the tabulated exit set is a
// caller bug and panics on the row lookup.
func (d *Dominance) SurvivorsInto(out *bgp.PathSet, s bgp.PathSet) {
	out.Copy(s)
	in := s.Words()
	n := min(len(in), d.w)
	for wi, word := range in {
		for ; word != 0; word &= word - 1 {
			p := wi*64 + bits.TrailingZeros64(word)
			row := d.rows[p*d.w : (p+1)*d.w]
			for i := 0; i < n; i++ {
				if row[i]&in[i] != 0 {
					out.Remove(bgp.PathID(p))
					break
				}
			}
		}
	}
}

// BestPerAS returns, for each neighbouring AS present among the candidates,
// the route the full selection procedure would pick if only routes through
// that AS existed. The result is ordered by AS number. This is the
// computation underlying the Walton et al. advertisement rule.
func BestPerAS(cands []bgp.Route, opts Options) []bgp.Route {
	// Collect the AS list while grouping rather than ranging over the map
	// afterwards: map iteration order is nondeterministic, and this
	// function feeds the advertisement sets whose determinism Lemma 7.4
	// relies on.
	byAS := make(map[bgp.ASN][]bgp.Route)
	asns := make([]bgp.ASN, 0, 4)
	for _, r := range cands {
		if _, ok := byAS[r.Path.NextAS]; !ok {
			asns = append(asns, r.Path.NextAS)
		}
		byAS[r.Path.NextAS] = append(byAS[r.Path.NextAS], r)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	out := make([]bgp.Route, 0, len(asns))
	for _, a := range asns {
		if w, ok := Best(byAS[a], opts); ok {
			out = append(out, w)
		}
	}
	return out
}

// WaltonSet returns the routes a Walton et al. route reflector announces:
// its best route through each neighbouring AS, kept only when that route
// has the same LOCAL-PREF and AS-PATH length as the overall best route
// (Section 8, "Brief Overview of the Walton et al. Solution"). The overall
// best is one of the per-AS winners and has the best LOCAL-PREF and
// AS-PATH length of all, so rules 1 and 2 over the winners keep exactly
// those routes.
func WaltonSet(cands []bgp.Route, opts Options) []bgp.Route {
	return survivorsInPlace(BestPerAS(cands, opts), routeExit, false, opts.MED, nil)
}
