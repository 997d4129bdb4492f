package topology_test

import (
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/igp"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// checkMetricSymmetry asserts that Metric, which reads the tree rooted at
// the exit point, prices every route exactly as the shortest path from the
// router to the exit point does.
func checkMetricSymmetry(t *testing.T, name string, sys *topology.System) {
	t.Helper()
	for u := 0; u < sys.N(); u++ {
		from := sys.Phys().Dijkstra(bgp.NodeID(u))
		for _, p := range sys.Exits() {
			want := igp.Infinity
			if d := from.Dist[p.ExitPoint]; d != igp.Infinity {
				want = d + p.ExitCost
			}
			if got := sys.Metric(bgp.NodeID(u), p); got != want {
				t.Fatalf("%s: Metric(%s, p%d) = %d, want %d", name, sys.Name(bgp.NodeID(u)), p.ID, got, want)
			}
		}
	}
}

// TestMetricSymmetry covers every paper figure and small generated
// systems, including the WithExits overlays of a multi-prefix spec, which
// share the base system's shortest-path cache.
func TestMetricSymmetry(t *testing.T) {
	for _, e := range figures.All() {
		checkMetricSymmetry(t, "fig"+e.Name, e.Build().Sys)
	}
	spec := topogen.Small()
	spec.Prefixes = 3
	for seed := int64(1); seed <= 5; seed++ {
		tsp, err := topogen.Generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		systems, err := topology.BuildSpecAll(tsp)
		if err != nil {
			t.Fatal(err)
		}
		if len(systems) != spec.Prefixes {
			t.Fatalf("seed %d: %d systems, want %d", seed, len(systems), spec.Prefixes)
		}
		for i, sys := range systems {
			checkMetricSymmetry(t, fmt.Sprintf("small seed %d prefix %d", seed, i), sys)
		}
	}
}
