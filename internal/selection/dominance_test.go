package selection

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// exitSets collects the exit-path sets the dominance kernel is checked
// over: every bundled figure, every loadable examples fixture, generated
// topologies (including a 70-exit one, so rows span two words) and
// synthetic sets whose LOCAL-PREF and AS-PATH length vary too — the
// figures mostly tie on rules 1 and 2, which would leave the lexicographic
// half of the lemma unexercised.
func exitSets(t *testing.T) map[string][]bgp.ExitPath {
	t.Helper()
	sets := map[string][]bgp.ExitPath{}
	for _, e := range figures.All() {
		sets["fig"+e.Name] = e.Build().Sys.Exits()
	}
	fixtures, err := filepath.Glob("../../examples/topologies/*.json")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no examples fixtures found: %v", err)
	}
	for _, path := range fixtures {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := topology.Load(f)
		f.Close()
		if err != nil {
			continue // broken-cluster and the confederation spec do not build
		}
		sets[filepath.Base(path)] = sys.Exits()
	}
	wide := topogen.Small()
	wide.Exits = 70
	for name, spec := range map[string]topogen.Spec{"small": topogen.Small(), "default": topogen.Default(), "wide70": wide} {
		spec.Prefixes = 3
		gen, err := topogen.Generate(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		systems, err := topology.BuildSpecAll(gen)
		if err != nil {
			t.Fatal(err)
		}
		for i, sys := range systems {
			sets[fmt.Sprintf("gen-%s-p%d", name, i)] = sys.Exits()
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 9, 64, 65, 130} {
		exits := make([]bgp.ExitPath, n)
		for i := range exits {
			exits[i] = bgp.ExitPath{ID: bgp.PathID(i), LocalPref: rng.Intn(3), ASPathLen: 1 + rng.Intn(3),
				NextAS: bgp.ASN(1 + rng.Intn(3)), MED: rng.Intn(4)}
		}
		sets[fmt.Sprintf("synthetic-%d", n)] = exits
	}
	return sets
}

// TestDominanceMatchesSurvivorsB is the pairwise-dominance lemma as a
// property: over random subsets S of each exit set, under both MED modes,
// {p in S : dom[p] misses S} is exactly survivorsB(S).
func TestDominanceMatchesSurvivorsB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, exits := range exitSets(t) {
		for _, mode := range []MEDMode{PerNeighborAS, AlwaysCompare} {
			dom := NewDominance(exits, mode)
			var got bgp.PathSet
			for trial := 0; trial < 200; trial++ {
				density := rng.Float64()
				var s bgp.PathSet
				var paths []bgp.ExitPath
				for _, p := range exits {
					if rng.Float64() < density {
						s.Add(p.ID)
						paths = append(paths, p)
					}
				}
				var want bgp.PathSet
				for _, p := range survivorsB(paths, mode) {
					want.Add(p.ID)
				}
				dom.SurvivorsInto(&got, s)
				if !got.Equal(want) {
					t.Fatalf("%s, %v, S = %v: kernel %v, SurvivorsB %v", name, mode, s, got, want)
				}
				// Each AS mask restricts the table to rules 1-3 over that
				// AS's members of S alone, whatever the MED mode.
				for m := 0; m < len(dom.masks); m += dom.w {
					mask := bgp.PathSetOver(dom.masks[m : m+dom.w])
					var sub []bgp.ExitPath
					for _, p := range paths {
						if mask.Contains(p.ID) {
							sub = append(sub, p)
						}
					}
					want = bgp.PathSet{}
					for _, p := range survivorsB(sub, PerNeighborAS) {
						want.Add(p.ID)
					}
					in := s.Clone()
					in.Intersect(mask)
					if dom.SurvivorsInto(&got, in); !got.Equal(want) {
						t.Fatalf("%s, %v, S = %v, AS mask %v: kernel %v, SurvivorsB %v", name, mode, s, mask, got, want)
					}
				}
			}
		}
	}
}

// TestBestOfSurvivorsEqualsBestInPlace: feeding rules 4-6 only the routes
// whose paths survive Choose^B picks BestInPlace's winner over all of
// them, under both rule orders and MED modes and whatever order the
// survivors arrive in.
func TestBestOfSurvivorsEqualsBestInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(24)
		rs := make([]bgp.Route, n)
		paths := make([]bgp.ExitPath, n)
		for i := range rs {
			rs[i] = mk(bgp.PathID(i), rng.Intn(2), 1+rng.Intn(2), bgp.ASN(1+rng.Intn(3)), rng.Intn(3),
				int64(rng.Intn(4)), rng.Intn(3) == 0, rng.Intn(4))
			paths[i] = rs[i].Path
		}
		opts := Options{Order: Order(rng.Intn(2)), MED: MEDMode(rng.Intn(2))}
		var surv []bgp.Route
		for _, p := range survivorsB(paths, opts.MED) {
			surv = append(surv, rs[p.ID])
		}
		rng.Shuffle(len(surv), func(i, j int) { surv[i], surv[j] = surv[j], surv[i] })
		want, _ := best(rs, opts)
		got, ok := BestOfSurvivors(surv, opts.Order)
		if !ok || got != want {
			t.Fatalf("trial %d (%+v): BestOfSurvivors %v, Best %v", trial, opts, got, want)
		}
	}
}
