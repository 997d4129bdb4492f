package lint

import (
	"testing"

	"repro/internal/topogen"
	"repro/internal/topology"
)

// warmDefaultSystems builds topogen.Default() for each seed and proves it
// once, so the shortest-path trees the encoder and the replay read are
// filled before anything is measured.
func warmDefaultSystems(tb testing.TB, seeds ...int64) []*topology.System {
	tb.Helper()
	systems := make([]*topology.System, len(seeds))
	for i, seed := range seeds {
		spec, err := topogen.Generate(topogen.Default(), seed)
		if err != nil {
			tb.Fatal(err)
		}
		if systems[i], err = topology.BuildSpec(spec); err != nil {
			tb.Fatal(err)
		}
		ProveSystem("warm", systems[i])
	}
	return systems
}

var benchReport *Report

// BenchmarkProveSystem is the prover's layer number: one ProveSystem call
// (every lint pass plus prove-stable and prove-wheel) on a 1012-router
// topogen.Default() topology with warm shortest-path trees, cycling over
// seeds 1000-1007. Run with -benchmem; B/op and allocs/op are the
// allocation story, ns/op the CPU one.
func BenchmarkProveSystem(b *testing.B) {
	systems := warmDefaultSystems(b, 1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReport = ProveSystem("bench", systems[i%len(systems)])
	}
}
