package protocol_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/workload"
)

// naiveBest is the six-rule selection procedure written for clarity over
// speed: each rule keeps the candidates that are best on its attribute,
// over every candidate the router holds, with no Dominance table and no
// in-place compaction.
func naiveBest(cands []bgp.Route, opts selection.Options) bgp.PathID {
	if len(cands) == 0 {
		return bgp.None
	}
	cur := append([]bgp.Route(nil), cands...)
	keep := func(better func(a, b bgp.Route) bool) {
		var next []bgp.Route
		for _, r := range cur {
			beaten := false
			for _, q := range cur {
				if better(q, r) {
					beaten = true
					break
				}
			}
			if !beaten {
				next = append(next, r)
			}
		}
		cur = next
	}
	keep(func(a, b bgp.Route) bool { return a.Path.LocalPref > b.Path.LocalPref })
	keep(func(a, b bgp.Route) bool { return a.Path.ASPathLen < b.Path.ASPathLen })
	keep(func(a, b bgp.Route) bool {
		return a.Path.MED < b.Path.MED && (opts.MED == selection.AlwaysCompare || a.Path.NextAS == b.Path.NextAS)
	})
	ebgp := func() { keep(func(a, b bgp.Route) bool { return a.EBGP() && !b.EBGP() }) }
	metric := func() { keep(func(a, b bgp.Route) bool { return a.Metric < b.Metric }) }
	if opts.Order == selection.RFCOrder {
		metric()
		ebgp()
	} else {
		ebgp()
		metric()
	}
	keep(func(a, b bgp.Route) bool {
		return a.LearnedFrom < b.LearnedFrom || (a.LearnedFrom == b.LearnedFrom && a.Path.ID < b.Path.ID)
	})
	return cur[0].Path.ID
}

// checkDecision holds every router's best route and advertised set to the
// naive selection over all of its candidates: best is naiveBest; a router
// advertising survivors (Modified, upgraded Adaptive) advertises exactly
// SurvivorsB(PossibleExits); a Walton reflector its WaltonSet; every
// other router {best}.
func checkDecision(e *protocol.Engine) error {
	sys := e.Sys()
	var s protocol.Snapshot
	e.SnapshotInto(&s)
	for v := 0; v < sys.N(); v++ {
		u := bgp.NodeID(v)
		var cands []bgp.Route
		var paths []bgp.ExitPath
		for _, id := range s.Possible[u].IDs() {
			p := sys.Exit(id)
			paths = append(paths, p)
			cands = append(cands, sys.Route(u, p, e.LearnedFrom(u, id)))
		}
		if want := naiveBest(cands, e.Options()); s.Best[u] != want {
			return fmt.Errorf("%s: best p%d, naive selection over %v picks p%d", sys.Name(u), s.Best[u], s.Possible[u], want)
		}
		var want bgp.PathSet
		switch {
		case e.Policy() == protocol.Modified || (e.Policy() == protocol.Adaptive && e.Upgraded(u)):
			for _, p := range selection.SurvivorsB(paths, e.Options().MED) {
				want.Add(p.ID)
			}
		case e.Policy() == protocol.Walton && sys.Role(u) == topology.Reflector:
			for _, r := range selection.WaltonSet(cands, e.Options()) {
				want.Add(r.Path.ID)
			}
		default:
			want.Add(s.Best[u])
		}
		if !s.Advertised[u].Equal(want) {
			return fmt.Errorf("%s: advertises %v, want %v (possible %v)", sys.Name(u), s.Advertised[u], want, s.Possible[u])
		}
	}
	return nil
}

// TestEngineDecisionMatchesReference differential-tests the engine's
// decision (Choose^B read off the Dominance table, rules 4-6 over the
// survivors alone) against the naive selection over every candidate,
// after every step of random schedules that also withdraw and restore
// exits and reset routers. Each step also checks WouldChange for one
// random router against a clone that performs the activation. Systems:
// every paper figure and workload.Generate seeds 1-24 of a MED-rich
// family, under all four policies, both rule orders and both MED modes.
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
							e.ActivateSet(sch.Next())
						}
						if err := checkDecision(e); err != nil {
							t.Fatalf("%s %v %v/%v step %d: %v", s.name, policy, order, med, step, err)
						}
						u := bgp.NodeID(rng.Intn(n))
						would := e.WouldChange(u)
						c := e.Clone()
						c.Activate(u)
						moved := !c.PossibleExits(u).Equal(e.PossibleExits(u)) || bestOf(c, u) != bestOf(e, u)
						if would != moved {
							t.Fatalf("%s %v %v/%v step %d: WouldChange(%s) = %v, activating it moves possible/best: %v",
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
