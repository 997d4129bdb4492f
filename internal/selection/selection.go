// Package selection implements the BGP route selection procedures of the
// paper: the full six-rule Choose_best of Section 2/Figure 6, the truncated
// Choose^B of Section 6/Figure 10 (rules 1-3, the "MED survivors"), the
// alternative rule ordering of RFC 1771/[11] discussed around Figure 1(b),
// the always-compare-MED variant, and the per-neighbouring-AS advertise set
// of the Walton et al. proposal (Section 8).
package selection

import (
	"math/bits"
	"slices"

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

// BestInPlace runs the full selection procedure over one router's candidate
// routes, reordering and truncating rs; ok is false when rs is empty. The
// rules: (1) highest LOCAL-PREF; (2) shortest AS-PATH; (3) least MED per
// neighbouring AS; (4)/(5) E-BGP first, then least metric (PaperOrder), or
// least metric, then E-BGP (RFCOrder); (6) lowest learnedFrom; then PathID.
func BestInPlace(rs []bgp.Route, opts Options) (bgp.Route, bool) {
	return BestOfSurvivors(survivorsInPlace(rs, routeExit, true, opts.MED, nil), opts.Order)
}

// BestOfSurvivors is rules 4-6 over routes that survived rules 1-3, in
// place. The engines read the survivors off a Dominance table, materialise
// just those and still get BestInPlace's winner: the filters are
// set-valued and the last tie-break is a total order, so neither the order
// of rs nor how rules 1-3 were evaluated can show.
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

// Survivors12 returns a fresh slice of the exit paths that survive rules 1
// and 2 (maximal LOCAL-PREF, then minimal AS-PATH length), in input order.
// The result is router-independent: the set within which MED (rule 3) and
// IGP metrics (rule 5) decide, which package lint's risk passes read.
func Survivors12(paths []bgp.ExitPath) []bgp.ExitPath {
	return survivorsInPlace(slices.Clone(paths), exitOf, false, PerNeighborAS, nil)
}

// SurvivorsBInPlace runs Choose^B (Figure 10), rules 1-3, over exit paths:
// the set the modified protocol advertises, well-defined without a router
// because the rules read only injection-time attributes. It compacts paths
// in place and returns the surviving prefix; byAS is survivorsInPlace's.
func SurvivorsBInPlace(paths []bgp.ExitPath, mode MEDMode, byAS map[bgp.ASN]int) []bgp.ExitPath {
	return survivorsInPlace(paths, exitOf, true, mode, byAS)
}

// survivorsInPlace is the one spelling of rules 1-3 (rule 3 only when med
// is set): it compacts xs in place, in order, and returns the survivors.
// exit projects an element, an exit path (exitOf) or a route (routeExit),
// onto the attributes the rules read. The Survivors* entry points,
// BestInPlace and Dominance run it, and WaltonInto ranks its per-AS
// winners by its rules-1-2 comparison, beats12, so Choose^B cannot drift
// between the engines, the RIB and lint. byAS holds the per-AS MED minima,
// cleared on entry; nil makes its own.
func survivorsInPlace[T any](xs []T, exit func(*T) *bgp.ExitPath, med bool, mode MEDMode, byAS map[bgp.ASN]int) []T {
	if len(xs) == 0 {
		return nil
	}
	// Rules 1 and 2: the paths that no path beats.
	best := *exit(&xs[0])
	for i := 1; i < len(xs); i++ {
		if p := exit(&xs[i]); beats12(p, &best) {
			best = *p
		}
	}
	top := func(p *bgp.ExitPath) bool { return !beats12(&best, p) }
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

// beats12 reports whether p beats q on rules 1 and 2: a higher LOCAL-PREF,
// or the same and a shorter AS-PATH.
func beats12(p, q *bgp.ExitPath) bool {
	return p.LocalPref > q.LocalPref || p.LocalPref == q.LocalPref && p.ASPathLen < q.ASPathLen
}

// exitOf and routeExit are survivorsInPlace's projections for its two
// element types.
func exitOf(p *bgp.ExitPath) *bgp.ExitPath { return p }
func routeExit(r *bgp.Route) *bgp.ExitPath { return &r.Path }

// Dominance is Choose^B tabulated for one exit-path set. Rules 1-3 form a
// lexicographic preference over injection-time attributes, so p survives
// Choose^B(S) iff no q in S eliminates p from Choose^B({p, q}) (DESIGN.md,
// "The decision kernel"). Row p is the set of such q, probed pair by pair
// through survivorsInPlace. The two MED modes agree within one neighbouring
// AS, so the rows under one AS's mask are rules 1-3 over that AS alone
// (WaltonInto). The table is immutable: a domain shares one per prefix.
type Dominance struct {
	w     int      // words per row
	rows  []uint64 // row p is rows[p*w : (p+1)*w]
	masks []uint64 // mask a is masks[a*w : (a+1)*w]: the exits through one neighbouring AS
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
	at := make(map[bgp.ASN]int, 2) // neighbouring AS -> offset of its mask
	for p := range exits {
		m, ok := at[exits[p].NextAS]
		if !ok {
			m = len(d.masks)
			at[exits[p].NextAS] = m
			d.masks = append(d.masks, make([]uint64, w)...)
		}
		d.masks[m+p/64] |= 1 << (uint(p) % 64)
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

// WaltonInto sets out to what a Walton et al. reflector announces from
// candidates s (Section 8): its best route through each neighbouring AS,
// kept when it has the overall best's LOCAL-PREF and AS-PATH length. Per
// AS, surv gets Choose^B of s under the AS's mask (in is scratch), routes
// materialises just those and BestOfSurvivors picks the AS winner. Rules 1
// and 2 then keep the winners no winner beats; the overall best is one of
// them. Nothing is allocated once out, in and surv have grown to s's width.
func (d *Dominance) WaltonInto(out, in, surv *bgp.PathSet, s bgp.PathSet, order Order, routes func(bgp.PathSet) []bgp.Route) {
	out.Clear()
	var top bgp.ExitPath // a kept winner
	for m := 0; m < len(d.masks); m += d.w {
		in.Copy(s)
		in.Intersect(bgp.PathSetOver(d.masks[m : m+d.w]))
		d.SurvivorsInto(surv, *in)
		w, ok := BestOfSurvivors(routes(*surv), order)
		if !ok || out.Len() > 0 && beats12(&top, &w.Path) {
			continue
		}
		if out.Len() == 0 || beats12(&w.Path, &top) {
			out.Clear()
			top = w.Path
		}
		out.Add(w.Path.ID)
	}
}
