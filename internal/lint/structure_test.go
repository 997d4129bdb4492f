package lint

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// specOf builds a minimal valid two-cluster spec the structural tests then
// break in targeted ways.
func specOf(mutate func(*topology.Spec)) *topology.Spec {
	spec := &topology.Spec{
		Clusters: []topology.ClusterSpec{
			{Reflectors: []string{"r1"}, Clients: []string{"c1"}},
			{Reflectors: []string{"r2"}, Clients: []string{"c2"}},
		},
		Links: []topology.LinkSpec{
			{A: "r1", B: "c1", Cost: 1},
			{A: "r2", B: "c2", Cost: 1},
			{A: "r1", B: "r2", Cost: 1},
		},
		Exits: []topology.ExitJSON{
			{At: "c1", NextAS: 1, MED: 0},
			{At: "c2", NextAS: 2, MED: 0},
		},
	}
	if mutate != nil {
		mutate(spec)
	}
	return spec
}

// TestSpecPassesFlagStructuralBreakage checks that every problem
// topology.Check reports surfaces, in order and verbatim, as an Error
// finding of its rule's pass, and that each rule family lands in the
// expected pass. The problems' wording is pinned by package topology's
// table of rejected specs.
func TestSpecPassesFlagStructuralBreakage(t *testing.T) {
	one, zero, nine := 1, 0, 9
	tests := []struct {
		name   string
		mutate func(*topology.Spec)
		pass   string
	}{
		{"valid spec passes", nil, ""},
		{"client with no reflector", func(s *topology.Spec) { s.Clusters[0].Reflectors = nil }, "cluster-structure"},
		{"cluster parent cycle", func(s *topology.Spec) { s.Clusters[0].Parent, s.Clusters[1].Parent = &one, &zero }, "cluster-structure"},
		{"self parent", func(s *topology.Spec) { s.Clusters[0].Parent = &zero }, "cluster-structure"},
		{"unknown parent", func(s *topology.Spec) { s.Clusters[0].Parent = &nine }, "cluster-structure"},
		{"dual-role node", func(s *topology.Spec) { s.Clusters[1].Clients = append(s.Clusters[1].Clients, "r1") }, "cluster-structure"},
		{"cross-cluster client session", func(s *topology.Spec) {
			s.ClientSessions = []topology.SessionSpec{{A: "c1", B: "c2"}}
		}, "cluster-structure"},
		{"unknown reflector reference in link", func(s *topology.Spec) { s.Links[2].B = "ghost" }, "node-references"},
		{"unknown exit point", func(s *topology.Spec) { s.Exits[0].At = "nowhere" }, "node-references"},
		{"unknown exit point in prefixExits", func(s *topology.Spec) {
			s.PrefixExits = [][]topology.ExitJSON{{{At: "ghost", NextAS: 1}}}
		}, "node-references"},
		{"self link", func(s *topology.Spec) { s.Links[0].B = "r1" }, "node-references"},
		{"shared BGP id", func(s *topology.Spec) { s.BGPIDs = map[string]int{"r1": 1003} }, "node-references"},
		{"negative MED", func(s *topology.Spec) { s.Exits[0].MED = -3 }, "attributes"},
		{"negative MED in prefixExits", func(s *topology.Spec) {
			s.PrefixExits = [][]topology.ExitJSON{{{At: "c1", NextAS: 1, MED: -5}}}
		}, "attributes"},
		{"negative link cost", func(s *topology.Spec) { s.Links[0].Cost = -1 }, "attributes"},
		{"zero link cost", func(s *topology.Spec) { s.Links[0].Cost = 0 }, "attributes"},
		{"disconnected physical graph", func(s *topology.Spec) { s.Links = s.Links[:2] }, "connectivity"},
	}
	passes := structuralPasses()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spec := specOf(tc.mutate)
			rep := lintOne(t, tc.name, spec)
			if tc.pass == "" {
				if rep.Verdict != VerdictPass {
					t.Fatalf("verdict = %v, want PASS; findings:\n%s", rep.Verdict, findingDump(rep))
				}
				return
			}
			if rep.Verdict != VerdictFail || !rep.HasPass(tc.pass) {
				t.Fatalf("verdict = %v, want FAIL with a %q finding; findings:\n%s", rep.Verdict, tc.pass, findingDump(rep))
			}
			var want []Finding
			for _, p := range topology.Check(spec) {
				pass := passes[p.Rule]
				want = append(want, Finding{Pass: pass.Name, Severity: Error, Ref: pass.Ref, Nodes: p.Nodes, Detail: p.Detail})
			}
			if !reflect.DeepEqual(rep.Findings, want) {
				t.Fatalf("findings:\n%s\nwant topology.Check's problems: %+v", findingDump(rep), want)
			}
		})
	}
}

// TestLintSpecReportsEveryPrefix: a valid multi-prefix spec gets one
// report per prefix, each naming its prefix, and the overlay exits reach
// the system passes.
func TestLintSpecReportsEveryPrefix(t *testing.T) {
	spec := specOf(func(s *topology.Spec) {
		s.PrefixExits = [][]topology.ExitJSON{
			{{At: "c1", NextAS: 7, MED: 0}},
			{{At: "c1", NextAS: 7, MED: 5}, {At: "c2", NextAS: 7, MED: 0}},
		}
	})
	reps := LintSpec("multi", spec)
	if len(reps) != 3 {
		t.Fatalf("%d reports, want 3", len(reps))
	}
	for i, want := range []Verdict{VerdictPass, VerdictPass, VerdictRisk} {
		if src := fmt.Sprintf("multi prefix %d", i); reps[i].Source != src || reps[i].Verdict != want {
			t.Errorf("report %d: %s %v, want %s %v; findings:\n%s", i, reps[i].Source, reps[i].Verdict, src, want, findingDump(reps[i]))
		}
	}
}

// mutatedSpec draws a small spec the way a configuration goes wrong: a
// valid skeleton of 1-4 clusters over a chain of links, then up to four
// random breaks drawn from a small name pool (so duplicates and unknown
// names are common): parents missing, forward or out of range, dropped
// reflectors, link ends and costs from -1 to 2, MEDs from -1 to 1, BGP id
// overrides, client sessions and prefixExits.
func mutatedSpec(rng *rand.Rand) *topology.Spec {
	pool := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	pick := func() string { return pool[rng.Intn(len(pool))] }
	spec := &topology.Spec{}
	var names []string
	next := 0
	declare := func() string {
		name := pool[next%len(pool)]
		next++
		names = append(names, name)
		return name
	}
	k := 1 + rng.Intn(4)
	for c := 0; c < k; c++ {
		cs := topology.ClusterSpec{Reflectors: []string{declare()}}
		for i := rng.Intn(2); i > 0; i-- {
			cs.Clients = append(cs.Clients, declare())
		}
		if c > 0 && rng.Intn(2) == 0 {
			p := rng.Intn(c)
			cs.Parent = &p
		}
		spec.Clusters = append(spec.Clusters, cs)
	}
	for i := 1; i < len(names); i++ {
		spec.Links = append(spec.Links, topology.LinkSpec{A: names[i-1], B: names[i], Cost: int64(1 + rng.Intn(2))})
	}
	for i := rng.Intn(3); i > 0; i-- {
		spec.Exits = append(spec.Exits, topology.ExitJSON{At: names[rng.Intn(len(names))], NextAS: 1, MED: rng.Intn(2)})
	}
	exit := func() topology.ExitJSON { return topology.ExitJSON{At: pick(), NextAS: 1, MED: rng.Intn(3) - 1} }
	for m := rng.Intn(5); m > 0; m-- {
		c := &spec.Clusters[rng.Intn(k)]
		switch rng.Intn(10) {
		case 0:
			p := rng.Intn(k+2) - 1
			c.Parent = &p
		case 1:
			c.Parent = nil
		case 2:
			c.Reflectors = nil
		case 3:
			c.Clients = append(c.Clients, pick())
		case 4:
			if len(spec.Links) > 0 {
				l := &spec.Links[rng.Intn(len(spec.Links))]
				l.B, l.Cost = pick(), int64(rng.Intn(4)-1)
			}
		case 5:
			if len(spec.Links) > 0 {
				spec.Links = spec.Links[1:]
			}
		case 6:
			spec.Exits = append(spec.Exits, exit())
		case 7:
			if spec.BGPIDs == nil {
				spec.BGPIDs = map[string]int{}
			}
			spec.BGPIDs[pick()] = 1000 + rng.Intn(4)
		case 8:
			spec.ClientSessions = append(spec.ClientSessions, topology.SessionSpec{A: pick(), B: pick()})
		default:
			spec.PrefixExits = append(spec.PrefixExits, []topology.ExitJSON{exit()})
		}
	}
	return spec
}

// TestStructuralRulesAgree is the drift guard between the structural
// rules and their two consumers: over 20,000 mutated specs, Check is empty
// exactly when BuildSpecAll builds, and LintSpec FAILs exactly when Check
// is not empty.
func TestStructuralRulesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valid := 0
	for i := 0; i < 20000; i++ {
		spec := mutatedSpec(rng)
		problems := topology.Check(spec)
		_, err := topology.BuildSpecAll(spec)
		if (len(problems) == 0) != (err == nil) {
			t.Fatalf("spec %d: Check = %+v but BuildSpecAll error = %v\nspec: %+v", i, problems, err, spec)
		}
		failed := false
		for _, r := range LintSpec("fuzz", spec) {
			failed = failed || r.Verdict == VerdictFail
		}
		if failed != (len(problems) > 0) {
			t.Fatalf("spec %d: LintSpec FAIL = %v, Check = %+v\nspec: %+v", i, failed, problems, spec)
		}
		if err == nil {
			valid++
		}
	}
	// Both sides of the equivalence must be exercised.
	if valid < 2000 || valid > 18000 {
		t.Fatalf("%d of 20000 specs valid; the generator no longer exercises both sides", valid)
	}
	t.Logf("%d of 20000 specs valid", valid)
}
