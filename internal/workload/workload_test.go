package workload

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/explore"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

func TestGenerateDeterministicAndValid(t *testing.T) {
	p := Default(4)
	a, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.NumExits() != b.NumExits() {
		t.Fatal("same seed produced different shapes")
	}
	for u := 0; u < a.N(); u++ {
		for v := 0; v < a.N(); v++ {
			if a.Phys().EdgeCost(bgp.NodeID(u), bgp.NodeID(v)) != b.Phys().EdgeCost(bgp.NodeID(u), bgp.NodeID(v)) {
				t.Fatal("same seed produced different costs")
			}
		}
	}
	if c, err := Generate(p, 8); err != nil || c.Phys().Degree(0) == a.Phys().Degree(0) &&
		c.NumExits() == a.NumExits() && c.N() == a.N() && topologySame(a, c) {
		t.Fatal("different seeds produced identical systems")
	}
}

func topologySame(a, b *topology.System) bool {
	if a.N() != b.N() {
		return false
	}
	for u := 0; u < a.N(); u++ {
		for v := 0; v < a.N(); v++ {
			if a.Phys().EdgeCost(bgp.NodeID(u), bgp.NodeID(v)) != b.Phys().EdgeCost(bgp.NodeID(u), bgp.NodeID(v)) {
				return false
			}
		}
	}
	return true
}

func TestGenerateShape(t *testing.T) {
	p := Params{Clusters: 3, MinClients: 2, MaxClients: 2, ASes: 2, Exits: 5, MaxMED: 1, MaxCost: 9, ExtraLinks: 3}
	sys, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumClusters() != 3 {
		t.Fatalf("clusters = %d", sys.NumClusters())
	}
	if sys.N() != 3*3 {
		t.Fatalf("nodes = %d, want 9", sys.N())
	}
	if sys.NumExits() != 5 {
		t.Fatalf("exits = %d", sys.NumExits())
	}
	for _, p := range sys.Exits() {
		if p.MED < 0 || p.MED > 1 || p.NextAS < 1 || p.NextAS > 2 {
			t.Fatalf("exit attributes out of range: %+v", p)
		}
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Clusters: 0, MinClients: 0, MaxClients: 1, ASes: 1, MaxMED: 0, MaxCost: 1},
		{Clusters: 1, MinClients: 2, MaxClients: 1, ASes: 1, MaxMED: 0, MaxCost: 1},
		{Clusters: 1, MinClients: 0, MaxClients: 1, ASes: 0, MaxMED: 0, MaxCost: 1},
		{Clusters: 1, MinClients: 0, MaxClients: 1, ASes: 1, MaxMED: -1, MaxCost: 1},
		{Clusters: 1, MinClients: 0, MaxClients: 1, ASes: 1, MaxMED: 0, MaxCost: 0},
	}
	for i, p := range bad {
		if _, err := Generate(p, 1); err == nil {
			t.Fatalf("case %d accepted: %+v", i, p)
		}
	}
}

func TestGeneratedSystemsRunAllPolicies(t *testing.T) {
	// Random systems must be well-formed enough for every engine; the
	// modified protocol must converge on all of them (Theorem 7).
	for seed := int64(0); seed < 15; seed++ {
		sys := MustGenerate(Default(3), seed)
		for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified} {
			e := protocol.New(sys, policy, selection.Options{})
			res := protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 4000})
			if policy == protocol.Modified && res.Outcome != protocol.Converged {
				t.Fatalf("seed %d: modified outcome %v", seed, res.Outcome)
			}
		}
	}
}

func TestSampleFamilies(t *testing.T) {
	cs, err := SampleCrossed(CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}, 8905)
	if err != nil {
		t.Fatal(err)
	}
	if cs.N() != 9 {
		t.Fatalf("crossed sample nodes = %d", cs.N())
	}
}

func TestClassifyOnKnownSystems(t *testing.T) {
	// The pinned Fig13 seed classifies as Fig13-like even without the
	// exhaustive pass.
	sys, err := SampleCrossed(CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}, 8905)
	if err != nil {
		t.Fatal(err)
	}
	v := Classify(context.Background(), sys, 0, 1)
	if !v.IsFig13Like() {
		t.Fatalf("pinned seed no longer Fig13-like: %+v", v)
	}
	// A trivially convergent system classifies as boring.
	quiet := MustGenerate(Params{Clusters: 2, MinClients: 1, MaxClients: 1, ASes: 2, Exits: 1, MaxMED: 0, MaxCost: 5, ExtraLinks: 1}, 3)
	vq := Classify(context.Background(), quiet, 0, 1)
	if vq.ClassicOscillates || vq.WaltonOscillates || !vq.ModifiedConverges {
		t.Fatalf("quiet system verdict: %+v", vq)
	}
}

func TestSearchFindsPinnedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("search is slow")
	}
	spec := CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}
	// Start near the known seed so the test is fast.
	for seed := int64(8900); seed <= 8910; seed++ {
		sys, err := SampleCrossed(spec, seed)
		if err != nil {
			continue
		}
		if Classify(context.Background(), sys, 0, 1).IsFig13Like() {
			return
		}
	}
	t.Fatal("no Fig13-like instance near the pinned seed")
}

// TestReachableSubsetOfEnumeration cross-validates the two stability
// decision procedures on random systems: every classic fixed point found
// by reachable-state search must appear in the complete global
// enumeration, no enumeration-empty system may have a reachable fixed
// point, and a converged run's outcome must be among the enumerated
// solutions.
func TestReachableSubsetOfEnumeration(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sys, err := Generate(Params{
			Clusters: 2, MinClients: 1, MaxClients: 1, ASes: 2,
			Exits: 3, MaxMED: 1, MaxCost: 10, ExtraLinks: 2,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		e := protocol.New(sys, protocol.Classic, selection.Options{})
		enum := explore.EnumerateStableClassic(e, 0)
		if enum.Truncated {
			continue
		}
		reach := explore.Reachable(e, explore.Options{Mode: explore.SingletonsPlusAll, MaxStates: 100000})
		if reach.Truncated {
			continue
		}
		inEnum := func(s protocol.Snapshot) bool {
			for _, sol := range enum.Solutions {
				if sol.BestEqual(s) {
					return true
				}
			}
			return false
		}
		for _, fp := range reach.FixedPoints {
			if !inEnum(fp) {
				t.Fatalf("seed %d: reachable fixed point %v missing from complete enumeration", seed, fp)
			}
		}
		if len(enum.Solutions) == 0 && reach.Stabilizable() {
			t.Fatalf("seed %d: reachable fixed point but empty enumeration", seed)
		}
		res := protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 4000})
		if res.Outcome == protocol.Converged && !inEnum(res.Final) {
			t.Fatalf("seed %d: converged outcome not among enumerated solutions", seed)
		}
	}
}

// TestParamsValidateErrorPaths: every degenerate family must be rejected
// by Validate (and therefore by Generate) instead of silently producing a
// misleading census sample.
func TestParamsValidateErrorPaths(t *testing.T) {
	good := Default(2)
	if err := good.Validate(); err != nil {
		t.Fatalf("default family rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"no clusters", func(p *Params) { p.Clusters = 0 }, "Clusters"},
		{"negative min clients", func(p *Params) { p.MinClients = -1 }, "client bounds"},
		{"crossed client bounds", func(p *Params) { p.MinClients = 3; p.MaxClients = 1 }, "client bounds"},
		{"no ASes", func(p *Params) { p.ASes = 0 }, "ASes"},
		{"no exits", func(p *Params) { p.Exits = 0 }, "Exits"},
		{"negative MED", func(p *Params) { p.MaxMED = -1 }, "MaxMED"},
		{"zero cost", func(p *Params) { p.MaxCost = 0 }, "MaxCost"},
		{"negative extra links", func(p *Params) { p.ExtraLinks = -1 }, "ExtraLinks"},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			p := good
			tc.mut(&p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("%+v validated", p)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the bad field (%q)", err, tc.want)
			}
			if _, gerr := Generate(p, 1); gerr == nil {
				t.Error("Generate accepted what Validate rejected")
			}
		})
	}
}

// TestCrossedSpecValidateErrorPaths covers the SampleCrossed guard.
func TestCrossedSpecValidateErrorPaths(t *testing.T) {
	good := CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("crossed family rejected: %v", err)
	}
	if (CrossedSpec{Clusters: 2, TwoClientOn: -1, ASes: 1, MaxMED: 0, DottedProb: 0}).Validate() != nil {
		t.Error("TwoClientOn=-1 (no second client) must be legal")
	}
	bads := []CrossedSpec{
		{Clusters: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5},
		{Clusters: 4, TwoClientOn: 4, ASes: 2, MaxMED: 2, DottedProb: 0.5},
		{Clusters: 4, ASes: 0, MaxMED: 2, DottedProb: 0.5},
		{Clusters: 4, ASes: 2, MaxMED: -1, DottedProb: 0.5},
		{Clusters: 4, ASes: 2, MaxMED: 2, DottedProb: 1.5},
		{Clusters: 4, ASes: 2, MaxMED: 2, DottedProb: -0.1},
	}
	for _, spec := range bads {
		if err := spec.Validate(); err == nil {
			t.Errorf("%+v validated", spec)
		}
		if _, err := SampleCrossed(spec, 1); err == nil {
			t.Errorf("SampleCrossed accepted %+v", spec)
		}
	}
}
