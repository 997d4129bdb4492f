package ibgp

// The benchmark harness regenerates every evaluation artifact of the
// paper: BenchmarkExperiments runs each row of the experiments ledger
// (E1-E23) as a sub-benchmark, plus micro-benchmarks of the substrates
// (selection, IGP, codec, engines). Run with:
//
//	go test -bench=. -benchmem
//
// or one row with -bench 'BenchmarkExperiments/E1$'.

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/experiments"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/sat"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

var benchOpts = experiments.Options{Seeds: 4, SweepSizes: []int{2, 4}}

// BenchmarkExperiments runs every row of the claims ledger as the
// sub-benchmark BenchmarkExperiments/<ID> and fails on a row that does not
// pass.
func BenchmarkExperiments(b *testing.B) {
	for _, x := range experiments.Ledger {
		b.Run(x.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := x.Run(benchOpts); !r.Pass {
					b.Fatalf("%s failed: %s", r.ID, r.Measured)
				}
			}
		})
	}
}

// --- convergence scaling: the E11 sweep as per-size benchmarks ---------------

func benchConvergence(b *testing.B, clusters int, policy Policy) {
	sys := workload.MustGenerate(workload.Default(clusters), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(sys, policy, Options{})
		res := Run(eng, PermutationRounds(sys.N(), int64(i)+1), RunOptions{MaxSteps: 6000})
		if policy == Modified && res.Outcome != Converged {
			b.Fatalf("modified did not converge: %v", res.Outcome)
		}
	}
}

func BenchmarkConvergeClassic4(b *testing.B)   { benchConvergence(b, 4, Classic) }
func BenchmarkConvergeClassic8(b *testing.B)   { benchConvergence(b, 8, Classic) }
func BenchmarkConvergeWalton4(b *testing.B)    { benchConvergence(b, 4, Walton) }
func BenchmarkConvergeWalton8(b *testing.B)    { benchConvergence(b, 8, Walton) }
func BenchmarkConvergeModified4(b *testing.B)  { benchConvergence(b, 4, Modified) }
func BenchmarkConvergeModified8(b *testing.B)  { benchConvergence(b, 8, Modified) }
func BenchmarkConvergeModified16(b *testing.B) { benchConvergence(b, 16, Modified) }
func BenchmarkConvergeModified32(b *testing.B) { benchConvergence(b, 32, Modified) }

// --- ablations ----------------------------------------------------------------

// Always-compare-med (the Section 1 mitigation) on Figure 1(a).
func BenchmarkAblationAlwaysCompareMED(b *testing.B) {
	fig := Fig1a()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(fig.Sys, Classic, Options{MED: AlwaysCompare})
		if res := Run(eng, RoundRobin(fig.Sys.N()), RunOptions{MaxSteps: 4000}); res.Outcome != Converged {
			b.Fatalf("always-compare-med did not converge: %v", res.Outcome)
		}
	}
}

// Rule-order ablation (footnote 4): RFC order on Figure 1(b) diverges.
func BenchmarkAblationRFCOrder(b *testing.B) {
	fig := Fig1b()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(fig.Sys, Classic, Options{Order: RFCOrder})
		if res := Run(eng, RoundRobin(fig.Sys.N()), RunOptions{MaxSteps: 4000}); res.Outcome != Cycled {
			b.Fatalf("RFC order should cycle: %v", res.Outcome)
		}
	}
}

// Message-size ablation: advertised set sizes per policy on one system.
func BenchmarkAblationAdvertisedSetSize(b *testing.B) {
	sys := workload.MustGenerate(workload.Default(6), 3)
	for i := 0; i < b.N; i++ {
		for _, policy := range []Policy{Classic, Walton, Modified} {
			eng := NewEngine(sys, policy, Options{})
			res := Run(eng, RoundRobin(sys.N()), RunOptions{MaxSteps: 6000})
			total := 0
			for u := range res.Final.Advertised {
				total += res.Final.Advertised[u].Len()
			}
			if policy == Modified && total == 0 {
				b.Fatal("modified advertised nothing")
			}
		}
	}
}

// --- substrate micro-benchmarks ------------------------------------------------

func BenchmarkIGPDijkstra(b *testing.B) {
	sys := workload.MustGenerate(workload.Default(12), 5)
	g := sys.Phys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := g.Dijkstra(bgp.NodeID(i % g.N()))
		if sp.Dist[(i+1)%g.N()] < 0 {
			b.Fatal("negative distance")
		}
	}
}

func BenchmarkEngineActivation(b *testing.B) {
	sys := workload.MustGenerate(workload.Default(8), 2)
	eng := protocol.New(sys, protocol.Modified, selection.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Activate(bgp.NodeID(i % sys.N()))
	}
}

func BenchmarkMsgsimFig1aClassicChurn(b *testing.B) {
	fig := Fig3()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := msgsim.New(fig.Sys, protocol.Classic, selection.Options{}, msgsim.ConstantDelay(10))
		s.InjectAll()
		s.Run(2000)
	}
}

func BenchmarkWireUpdateEncodeDecode(b *testing.B) {
	upd := wire.Update{
		Withdrawn: []wire.WithdrawnRoute{{PathID: 1}, {PathID: 2}, {PathID: 3}},
		Announced: []wire.RouteRecord{
			{PathID: 4, LocalPref: 100, ASPathLen: 2, NextAS: 7, MED: 1, ExitPoint: 3, NextHopID: 2004, TieBreak: -1},
			{PathID: 5, LocalPref: 100, ASPathLen: 2, NextAS: 8, MED: 0, ExitPoint: 2, NextHopID: 2005, TieBreak: -1},
		},
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.Append(buf[:0], upd)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSATSolve(b *testing.B) {
	f := sat.Random3SAT(12, 40, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sat.Solve(f)
	}
}

func BenchmarkSATReduce(b *testing.B) {
	f := sat.Random3SAT(4, 8, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sat.Reduce(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyBuild(b *testing.B) {
	spec := topology.ToSpec(Fig13().Sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topology.BuildSpec(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStableEnumerationFig2(b *testing.B) {
	fig := Fig2()
	for i := 0; i < b.N; i++ {
		if sols := StableSolutions(fig.Sys, Options{}); len(sols) != 2 {
			b.Fatalf("solutions = %d", len(sols))
		}
	}
}

func BenchmarkReachabilityFig1a(b *testing.B) {
	fig := Fig1a()
	for i := 0; i < b.N; i++ {
		if a := Analyze(fig.Sys, Classic, Options{}, false); a.Stabilizable() {
			b.Fatal("Fig1a should not stabilize")
		}
	}
}
