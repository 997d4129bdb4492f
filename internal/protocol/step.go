package protocol

import (
	"repro/internal/bgp"
	"repro/internal/selection"
	"repro/internal/topology"
)

// AdvertiseInto is the router step both engines run after deciding: it
// sets out to what a router advertises under policy p once it has chosen
// best from its candidates s and left Choose^B(s) in surv: surv (the
// GoodExits of Section 6) under Modified and once an Adaptive router has
// upgraded; a Walton reflector's best route per neighbouring AS (Section 8,
// with surv and asIn as scratch); otherwise {best}, or nothing.
func (p Policy) AdvertiseInto(out *bgp.PathSet, role topology.Role, upgraded bool, best bgp.PathID,
	s bgp.PathSet, surv, asIn *bgp.PathSet, dom *selection.Dominance, order selection.Order,
	routes func(bgp.PathSet) []bgp.Route) {
	switch {
	case p == Modified || upgraded:
		out.Copy(*surv)
	case p == Walton && role == topology.Reflector:
		dom.WaltonInto(out, asIn, surv, s, order, routes)
	default:
		out.Clear()
		out.Add(best)
	}
}

// Revisits is one router's Adaptive oscillation detector (Section 10): the
// best routes it has held, how often its best route moved back to one of
// them, and whether that count reached AdaptiveThreshold, after which it
// advertises its survivors. Under every other policy it stays zero.
type Revisits struct {
	held     bgp.PathSet
	count    int32
	upgraded bool
}

// upgradedAfter reports whether, under policy p, the router advertises its
// survivors once its best route moves from old to best: a move back to a
// route held before is a revisit.
func (d *Revisits) upgradedAfter(p Policy, old, best bgp.PathID) bool {
	return p == Adaptive && (d.upgraded ||
		best != old && best != bgp.None && d.held.Contains(best) && d.count+1 >= AdaptiveThreshold)
}

// Note records, under policy p, a best-route move from old to best.
func (d *Revisits) Note(p Policy, old, best bgp.PathID) {
	if p != Adaptive || best == old || best == bgp.None {
		return
	}
	d.upgraded = d.upgradedAfter(p, old, best)
	if d.held.Contains(best) {
		d.count++
	}
	d.held.Add(best)
}

// Upgraded reports whether the router advertises its survivors.
func (d *Revisits) Upgraded() bool { return d.upgraded }
