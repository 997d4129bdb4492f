package protocol_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/workload"
)

// keepUnbeaten returns the candidates that no candidate is better than.
func keepUnbeaten(cur []bgp.Route, better func(a, b bgp.Route) bool) []bgp.Route {
	var next []bgp.Route
	for _, r := range cur {
		if !slices.ContainsFunc(cur, func(q bgp.Route) bool { return better(q, r) }) {
			next = append(next, r)
		}
	}
	return next
}

// naiveTop12 keeps the candidates with the highest LOCAL-PREF and, among
// them, the shortest AS-PATH: rules 1 and 2.
func naiveTop12(cands []bgp.Route) []bgp.Route {
	cur := keepUnbeaten(cands, func(a, b bgp.Route) bool { return a.Path.LocalPref > b.Path.LocalPref })
	return keepUnbeaten(cur, func(a, b bgp.Route) bool { return a.Path.ASPathLen < b.Path.ASPathLen })
}

// naiveChooseB is Choose^B, rules 1-3, over every candidate.
func naiveChooseB(cands []bgp.Route, opts selection.Options) []bgp.Route {
	return keepUnbeaten(naiveTop12(cands), func(a, b bgp.Route) bool {
		return a.Path.MED < b.Path.MED && (opts.MED == selection.AlwaysCompare || a.Path.NextAS == b.Path.NextAS)
	})
}

// naiveBest is the six-rule selection procedure written for clarity over
// speed: each rule keeps the candidates that are best on its attribute,
// over every candidate the router holds, with no Dominance table and no
// in-place compaction.
func naiveBest(cands []bgp.Route, opts selection.Options) bgp.PathID {
	if len(cands) == 0 {
		return bgp.None
	}
	cur := naiveChooseB(cands, opts)
	ebgp := func() { cur = keepUnbeaten(cur, func(a, b bgp.Route) bool { return a.EBGP() && !b.EBGP() }) }
	metric := func() { cur = keepUnbeaten(cur, func(a, b bgp.Route) bool { return a.Metric < b.Metric }) }
	if opts.Order == selection.RFCOrder {
		metric()
		ebgp()
	} else {
		ebgp()
		metric()
	}
	cur = keepUnbeaten(cur, func(a, b bgp.Route) bool {
		return a.LearnedFrom < b.LearnedFrom || (a.LearnedFrom == b.LearnedFrom && a.Path.ID < b.Path.ID)
	})
	return cur[0].Path.ID
}

// naiveWalton is Section 8's definition: group the candidates by
// neighbouring AS, take naiveBest of each group, and keep the winners at
// the top on LOCAL-PREF and AS-PATH length.
func naiveWalton(cands []bgp.Route, opts selection.Options) bgp.PathSet {
	var winners []bgp.Route
	for i, c := range cands {
		if slices.ContainsFunc(cands[:i], func(q bgp.Route) bool { return q.Path.NextAS == c.Path.NextAS }) {
			continue
		}
		var group []bgp.Route
		for _, q := range cands {
			if q.Path.NextAS == c.Path.NextAS {
				group = append(group, q)
			}
		}
		id := naiveBest(group, opts)
		winners = append(winners, group[slices.IndexFunc(group, func(q bgp.Route) bool { return q.Path.ID == id })])
	}
	var out bgp.PathSet
	for _, w := range naiveTop12(winners) {
		out.Add(w.Path.ID)
	}
	return out
}

// checkDecision holds every router's best route and advertised set to the
// naive selection over all of its candidates: best is naiveBest; a router
// advertising survivors (Modified, upgraded Adaptive) advertises exactly
// naiveChooseB(PossibleExits); a Walton reflector naiveWalton; every other
// router {best}.
func checkDecision(e *protocol.Engine) error {
	sys := e.Sys()
	var s protocol.Snapshot
	e.SnapshotInto(&s)
	for v := 0; v < sys.N(); v++ {
		u := bgp.NodeID(v)
		var cands []bgp.Route
		for _, id := range s.Possible[u].IDs() {
			cands = append(cands, sys.Route(u, sys.Exit(id), e.LearnedFrom(u, id)))
		}
		if want := naiveBest(cands, e.Options()); s.Best[u] != want {
			return fmt.Errorf("%s: best p%d, naive selection over %v picks p%d", sys.Name(u), s.Best[u], s.Possible[u], want)
		}
		var want bgp.PathSet
		switch {
		case e.Policy() == protocol.Modified || (e.Policy() == protocol.Adaptive && e.Upgraded(u)):
			for _, r := range naiveChooseB(cands, e.Options()) {
				want.Add(r.Path.ID)
			}
		case e.Policy() == protocol.Walton && sys.Role(u) == topology.Reflector:
			want = naiveWalton(cands, e.Options())
		default:
			want.Add(s.Best[u])
		}
		if !s.Advertised[u].Equal(want) {
			return fmt.Errorf("%s: advertises %v, want %v (possible %v)", sys.Name(u), s.Advertised[u], want, s.Possible[u])
		}
	}
	return nil
}

// checkAttribution derives the learnedFrom of every path u holds from the
// advertised sets as they stood before u's activation, independently of
// the engine's gather: the path's fixed tie-break if set, the external
// next hop for u's own exit, otherwise the lowest BGP ID among the peers
// that advertised the path and that Transfer lets it through from.
func checkAttribution(e *protocol.Engine, u bgp.NodeID, pre protocol.Snapshot) error {
	sys := e.Sys()
	own := e.MyExits(u)
	for _, id := range e.PossibleExits(u).IDs() {
		p := sys.Exit(id)
		want := -1
		switch {
		case p.TieBreak >= 0:
			want = p.TieBreak
		case own.Contains(id):
			want = p.NextHopID
		default:
			for _, w := range sys.Peers(u) {
				if pre.Advertised[w].Contains(id) && sys.Transfers(w, u, p) && (want < 0 || sys.BGPID(w) < want) {
					want = sys.BGPID(w)
				}
			}
		}
		if got := e.LearnedFrom(u, id); got != want {
			return fmt.Errorf("%s: p%d learnedFrom %d, the pre-step advertisements give %d", sys.Name(u), id, got, want)
		}
	}
	return nil
}

// TestEngineDecisionMatchesReference differential-tests the engine's
// decision (Choose^B read off the Dominance table, rules 4-6 over the
// survivors alone) against the naive selection over every candidate,
// after every step of random schedules that also withdraw and restore
// exits and reset routers. After each activation step every activated
// router's learnedFrom is derived afresh from the pre-step advertisements
// (checkDecision reads the engine's own attribution, so it cannot catch a
// rule-6 attribution bug). Each step also checks WouldChange for one
// random router against a clone that performs the activation. Systems:
// every paper figure, the learnedFrom fixture (a client of two
// co-reflectors, so a path arrives from two peers), the Walton rule-6
// fixture (a reflector whose Walton set moves through learnedFrom alone)
// and workload.Generate seeds 1-24 of a MED-rich family, under all four
// policies, both rule orders and both MED modes.
func TestEngineDecisionMatchesReference(t *testing.T) {
	family := workload.Params{Clusters: 3, MinClients: 1, MaxClients: 2, ASes: 2,
		Exits: 6, MaxMED: 2, MaxCost: 8, ExtraLinks: 2}
	type system struct {
		name string
		sys  *topology.System
	}
	var systems []system
	for _, f := range figures.All() {
		systems = append(systems, system{"fig" + f.Name, f.Build().Sys})
	}
	fix, _, _ := learnedFromFixture(t)
	systems = append(systems, system{"learnedFrom-fixture", fix}, system{"walton-rule6-fixture", waltonRule6Fixture(t)})
	for seed := int64(1); seed <= 24; seed++ {
		sys, err := workload.Generate(family, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		systems = append(systems, system{fmt.Sprintf("seed%d", seed), sys})
	}
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for si, s := range systems {
		n := s.sys.N()
		for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified, protocol.Adaptive} {
			for _, order := range []selection.Order{selection.PaperOrder, selection.RFCOrder} {
				for _, med := range []selection.MEDMode{selection.PerNeighborAS, selection.AlwaysCompare} {
					opts := selection.Options{Order: order, MED: med}
					e := protocol.New(s.sys, policy, opts)
					if err := checkDecision(e); err != nil {
						t.Fatalf("%s %v %v/%v initial: %v", s.name, policy, order, med, err)
					}
					rng := rand.New(rand.NewSource(int64(si)))
					sch := protocol.PermutationRounds(n, int64(si))
					if si%2 == 1 {
						sch = protocol.SubsetRounds(n, int64(si))
					}
					for step := 0; step < steps; step++ {
						switch k := rng.Intn(20); {
						case k == 0:
							e.Withdraw(bgp.PathID(rng.Intn(s.sys.NumExits())))
						case k == 1:
							e.Restore(bgp.PathID(rng.Intn(s.sys.NumExits())))
						case k == 2:
							e.ResetNode(bgp.NodeID(rng.Intn(n)))
						default:
							var pre protocol.Snapshot
							e.SnapshotInto(&pre)
							set := sch.Next()
							e.ActivateSet(set)
							for _, u := range set {
								if err := checkAttribution(e, u, pre); err != nil {
									t.Fatalf("%s %v %v/%v step %d: %v", s.name, policy, order, med, step, err)
								}
							}
						}
						if err := checkDecision(e); err != nil {
							t.Fatalf("%s %v %v/%v step %d: %v", s.name, policy, order, med, step, err)
						}
						u := bgp.NodeID(rng.Intn(n))
						would := e.WouldChange(u)
						c := e.Clone()
						c.Activate(u)
						moved := !c.PossibleExits(u).Equal(e.PossibleExits(u)) || bestOf(c, u) != bestOf(e, u) ||
							!c.Advertised(u).Equal(e.Advertised(u))
						if would != moved {
							t.Fatalf("%s %v %v/%v step %d: WouldChange(%s) = %v, activating it moves possible/best/advertised: %v",
								s.name, policy, order, med, step, s.sys.Name(u), would, moved)
						}
						if err := checkDecision(c); err != nil {
							t.Fatalf("%s %v %v/%v step %d, clone after activating %s: %v",
								s.name, policy, order, med, step, s.sys.Name(u), err)
						}
					}
				}
			}
		}
	}
}

// bestOf returns u's best exit path.
func bestOf(e *protocol.Engine, u bgp.NodeID) bgp.PathID {
	var s protocol.Snapshot
	e.SnapshotInto(&s)
	return s.Best[u]
}
