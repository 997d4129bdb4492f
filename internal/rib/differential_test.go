package rib

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// reference is the decision process as it was before the dominance kernel,
// kept test-local as the differential oracle: materialise every candidate
// as a route through topology.System.Route, run selection.BestInPlace over
// all of them, compute the advertise set with SurvivorsBInPlace / the
// naive Walton set / {best}, and classify and filter per peer through System.ServedBy on
// NodeIDs. It reads the RIB's contents only through its set accessors.
type reference struct {
	r     *RIB
	cands []bgp.Route
}

func (ref *reference) learnedFrom(p bgp.ExitPath) int {
	r := ref.r
	if p.TieBreak >= 0 {
		return p.TieBreak
	}
	if r.MyExits().Contains(p.ID) {
		return p.NextHopID
	}
	lf := int(^uint(0) >> 1)
	for _, w := range r.pg.Peers() {
		if r.AdjIn(w).Contains(p.ID) && r.sys.BGPID(w) < lf {
			lf = r.sys.BGPID(w)
		}
	}
	return lf
}

func (ref *reference) best() bgp.PathID {
	r := ref.r
	ref.cands = ref.cands[:0]
	for _, id := range r.Possible().IDs() {
		p := r.sys.Exit(id)
		ref.cands = append(ref.cands, r.sys.Route(r.id, p, ref.learnedFrom(p)))
	}
	if w, ok := selection.BestInPlace(slices.Clone(ref.cands), r.opts); ok {
		return w.Path.ID
	}
	return bgp.None
}

// advertise must follow best (it reuses the candidates).
func (ref *reference) advertise() bgp.PathSet {
	r := ref.r
	var out bgp.PathSet
	switch {
	case r.policy == protocol.Modified || (r.policy == protocol.Adaptive && r.Upgraded()):
		var paths []bgp.ExitPath
		for _, c := range ref.cands {
			paths = append(paths, c.Path)
		}
		for _, p := range selection.SurvivorsBInPlace(paths, r.opts.MED, map[bgp.ASN]int{}) {
			out.Add(p.ID)
		}
	case r.policy == protocol.Walton && r.sys.Role(r.id) == topology.Reflector:
		out = naiveWalton(ref.cands, r.opts)
	default:
		if w, ok := selection.BestInPlace(slices.Clone(ref.cands), r.opts); ok {
			out.Add(w.Path.ID)
		}
	}
	return out
}

// naiveWalton is Section 8's definition over every candidate: group the
// candidates by neighbouring AS, take each group's best route, and keep
// the winners no other winner beats on LOCAL-PREF, then AS-PATH length.
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
		w, _ := selection.BestInPlace(group, opts)
		winners = append(winners, w)
	}
	var out bgp.PathSet
	for _, w := range winners {
		if !slices.ContainsFunc(winners, func(v bgp.Route) bool {
			return v.Path.LocalPref > w.Path.LocalPref ||
				v.Path.LocalPref == w.Path.LocalPref && v.Path.ASPathLen < w.Path.ASPathLen
		}) {
			out.Add(w.Path.ID)
		}
	}
	return out
}

func (ref *reference) mayAnnounce(id bgp.PathID, w bgp.NodeID) bool {
	r := ref.r
	if r.MyExits().Contains(id) {
		return true
	}
	for _, from := range r.pg.Peers() {
		if r.AdjIn(from).Contains(id) && r.sys.ServedBy(from, r.id) {
			return w != from // the first served holder is the originator
		}
	}
	return r.sys.ServedBy(w, r.id)
}

func (ref *reference) diff(adv bgp.PathSet, i int) (ann, wd []bgp.PathID) {
	r := ref.r
	w := r.pg.Peers()[i]
	var target bgp.PathSet
	for _, id := range adv.IDs() {
		if ref.mayAnnounce(id, w) {
			target.Add(id)
		}
	}
	last := r.set(r.lastSent(i))
	for _, id := range target.IDs() {
		if !last.Contains(id) {
			ann = append(ann, id)
		}
	}
	for _, id := range last.IDs() {
		if !target.Contains(id) {
			wd = append(wd, id)
		}
	}
	return ann, wd
}

func differentialSystems(t *testing.T) []*topology.System {
	t.Helper()
	var out []*topology.System
	for _, e := range figures.All() {
		out = append(out, e.Build().Sys)
	}
	out = append(out, threeLevelSystem(t), dualInstanceSystem(t))
	wide := topogen.Small()
	wide.Exits = 70
	for _, spec := range []topogen.Spec{topogen.Small(), wide} {
		spec.Prefixes = 2
		gen, err := topogen.Generate(spec, 9)
		if err != nil {
			t.Fatal(err)
		}
		systems, err := topology.BuildSpecAll(gen)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, systems...)
	}
	return out
}

// TestDecisionMatchesMaterialiseEverything drives random RIB states —
// random injected subsets of the router's own exits, random Adj-RIB-Ins,
// advertisement memories left by randomly committed earlier rounds —
// through RecomputeBest / PrepareFlush / DiffAt and checks best route and
// every per-peer diff (hence the advertise set) against the reference,
// for all four policies, both rule orders and both MED modes.
func TestDecisionMatchesMaterialiseEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	policies := []protocol.Policy{protocol.Classic, protocol.Modified, protocol.Walton, protocol.Adaptive}
	for si, sys := range differentialSystems(t) {
		all := sys.Exits()
		for trial := 0; trial < 24; trial++ {
			policy := policies[trial%len(policies)]
			opts := selection.Options{Order: selection.Order(trial / 4 % 2), MED: selection.MEDMode(trial / 8 % 2)}
			id := bgp.NodeID(rng.Intn(sys.N()))
			r := New(sys, policy, opts, id)
			ref := &reference{r: r}
			peers := r.pg.Peers()
			for round := 0; round < 12; round++ {
				// Mutate: flip a few own exits and a few Adj-RIB-In entries.
				for _, p := range sys.MyExits(id) {
					if rng.Intn(3) == 0 {
						r.WithdrawExternal(p)
					} else if rng.Intn(2) == 0 {
						r.Inject(p)
					}
				}
				for i := range peers {
					for n := rng.Intn(1 + len(all)/2); n > 0; n-- {
						p := all[rng.Intn(len(all))].ID
						if rng.Intn(3) == 0 {
							r.UnlearnAt(i, p)
						} else {
							r.LearnAt(i, p)
						}
					}
				}
				if rng.Intn(8) == 0 && len(peers) > 0 {
					r.PeerDown(rng.Intn(len(peers)))
				}

				r.RecomputeBest()
				if want := ref.best(); r.Best() != want {
					t.Fatalf("system %d router %d %v %+v round %d: best p%d, reference p%d (possible %v)",
						si, id, policy, opts, round, r.Best(), want, r.Possible())
				}
				r.PrepareFlush()
				adv := ref.advertise()
				for i := range peers {
					ann, wd := r.DiffAt(i, nil, nil)
					wantAnn, wantWd := ref.diff(adv, i)
					if !slices.Equal(ann, wantAnn) || !slices.Equal(wd, wantWd) {
						t.Fatalf("system %d router %d %v %+v round %d peer %d: diff +%v -%v, reference +%v -%v",
							si, id, policy, opts, round, peers[i], ann, wd, wantAnn, wantWd)
					}
					if rng.Intn(3) > 0 { // some sends fail: the diff stays owed
						r.ApplyDiffAt(i, ann, wd)
					}
				}
			}
		}
	}
}
