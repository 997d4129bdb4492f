package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/topology"
)

// TestFigureVerdicts is the core soundness table: every oscillating figure
// configuration must be flagged RISK, every safe one must PASS, and no
// figure (all are buildable) may FAIL.
func TestFigureVerdicts(t *testing.T) {
	for _, e := range figures.All() {
		e := e
		t.Run("Fig"+e.Name, func(t *testing.T) {
			rep := LintSystem("fig"+e.Name, e.Build().Sys)
			want := VerdictPass
			if e.Oscillates {
				want = VerdictRisk
			}
			if rep.Verdict != want {
				t.Fatalf("Fig%s (%s): verdict = %v, want %v; findings:\n%s",
					e.Name, e.Title, rep.Verdict, want, findingDump(rep))
			}
		})
	}
}

// TestFigureFindingDetails pins the specific pass and citation behind the
// headline verdicts the paper's examples demand.
func TestFigureFindingDetails(t *testing.T) {
	tests := []struct {
		fig      string
		build    func() *figures.Fig
		pass     string
		refPart  string
		nodePart string
	}{
		// Fig 1(a): the MED/cluster precondition, citing Section 3.
		{"1a", figures.Fig1a, "med-cluster-interaction", "Section 3", "a2"},
		// Fig 2: the cross-cluster dispute cycle.
		{"2", figures.Fig2, "dispute-cycle", "Figure 2", "RR1"},
		// Fig 13, the Section 8 Walton counterexample: MED again.
		{"13", figures.Fig13, "med-cluster-interaction", "Section 3", "C1_0"},
	}
	for _, tc := range tests {
		rep := LintSystem("fig"+tc.fig, tc.build().Sys)
		if !rep.HasPass(tc.pass) {
			t.Errorf("Fig%s: no %q finding; findings:\n%s", tc.fig, tc.pass, findingDump(rep))
			continue
		}
		found := false
		for _, f := range rep.Findings {
			if f.Pass != tc.pass {
				continue
			}
			if !strings.Contains(f.Ref, tc.refPart) {
				t.Errorf("Fig%s: %s finding cites %q, want mention of %q", tc.fig, tc.pass, f.Ref, tc.refPart)
			}
			for _, n := range f.Nodes {
				if n == tc.nodePart {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("Fig%s: %s finding does not anchor at node %q; findings:\n%s",
				tc.fig, tc.pass, tc.nodePart, findingDump(rep))
		}
	}
}

// TestHierarchyTopologyPasses lints the bundled three-level hierarchy
// configuration: it must PASS and carry the monotone-hierarchy and
// MED-free certificates.
func TestHierarchyTopologyPasses(t *testing.T) {
	rep := lintFile(t, "hierarchy.json")
	if rep.Verdict != VerdictPass {
		t.Fatalf("hierarchy.json: verdict = %v, want PASS; findings:\n%s", rep.Verdict, findingDump(rep))
	}
	text := findingDump(rep)
	for _, cert := range []string{"monotone-hierarchy", "med-free-selection"} {
		if !strings.Contains(text, cert) {
			t.Errorf("hierarchy.json: missing %s certificate; findings:\n%s", cert, text)
		}
	}
	if !rep.HasPass("safety-certificate") {
		t.Errorf("hierarchy.json: certificates not attributed to the safety-certificate pass; findings:\n%s", text)
	}
}

// TestQuickstartTopologyPasses replays the README/examples quickstart
// configuration through the linter: MEDs differ within AS 100 but both
// exit points share a cluster, so no risk pattern may fire.
func TestQuickstartTopologyPasses(t *testing.T) {
	b := topology.NewBuilder()
	pod1 := b.NewCluster()
	pod2 := b.NewCluster()
	rr1 := b.Reflector("rr1", pod1)
	edge1 := b.Client("edge1", pod1)
	edge2 := b.Client("edge2", pod1)
	rr2 := b.Reflector("rr2", pod2)
	edge3 := b.Client("edge3", pod2)
	b.Link(rr1, edge1, 10).Link(rr1, edge2, 20).Link(rr1, rr2, 5).Link(rr2, edge3, 10)
	b.Exit(edge1, topology.ExitSpec{NextAS: 100, MED: 10})
	b.Exit(edge2, topology.ExitSpec{NextAS: 100, MED: 0})
	b.Exit(edge3, topology.ExitSpec{NextAS: 200, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := LintSystem("quickstart", sys)
	if rep.Verdict != VerdictPass {
		t.Fatalf("quickstart: verdict = %v, want PASS; findings:\n%s", rep.Verdict, findingDump(rep))
	}
}

// TestBrokenClusterFixtureFails lints the negative fixture: a cluster of
// clients with no reflector plus a parent cycle must FAIL, with the
// cluster-structure pass reporting the reflector-less cluster and the
// parent that is not an earlier cluster (every cycle has one).
func TestBrokenClusterFixtureFails(t *testing.T) {
	rep := lintFile(t, "broken-cluster.json")
	if rep.Verdict != VerdictFail {
		t.Fatalf("broken-cluster.json: verdict = %v, want FAIL; findings:\n%s", rep.Verdict, findingDump(rep))
	}
	text := findingDump(rep)
	for _, want := range []string{"no route reflector", "cluster 1 has invalid parent 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("broken-cluster.json: findings lack %q; got:\n%s", want, text)
		}
	}
}

// TestAllBundledTopologies lints every I-BGP topology JSON shipped under
// examples/topologies: only the deliberately broken fixture may FAIL.
func TestAllBundledTopologies(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "topologies")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if filepath.Ext(name) != ".json" || strings.HasPrefix(name, "confed-") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := topology.ParseSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := lintOne(t, name, spec)
		if name == "broken-cluster.json" {
			if rep.Verdict != VerdictFail {
				t.Errorf("%s: verdict = %v, want FAIL", name, rep.Verdict)
			}
			continue
		}
		if rep.Verdict == VerdictFail {
			t.Errorf("%s: unexpected FAIL; findings:\n%s", name, findingDump(rep))
		}
	}
}

// TestReporters exercises both output formats over a RISK report.
func TestReporters(t *testing.T) {
	rep := LintSystem("fig1a", figures.Fig1a().Sys)
	var text bytes.Buffer
	if err := WriteText(&text, true, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RISK", "fig1a", "med-cluster-interaction"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report lacks %q:\n%s", want, text.String())
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Source   string `json:"source"`
		Verdict  string `json:"verdict"`
		Findings []struct {
			Pass     string `json:"pass"`
			Severity string `json:"severity"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON report does not parse: %v\n%s", err, buf.String())
	}
	if len(decoded) != 1 || decoded[0].Verdict != "RISK" || decoded[0].Source != "fig1a" {
		t.Fatalf("JSON report mismatch: %+v", decoded)
	}
	seen := false
	for _, f := range decoded[0].Findings {
		if f.Pass == "med-cluster-interaction" && f.Severity == "risk" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("JSON report lacks the med-cluster-interaction risk finding:\n%s", buf.String())
	}
}

// TestPassRegistry sanity-checks the pass registry: unique names and docs,
// and every pass without a System is a structural one.
func TestPassRegistry(t *testing.T) {
	structural := map[string]bool{}
	for _, p := range structuralPasses() {
		structural[p.Name] = true
	}
	seen := map[string]bool{}
	for _, p := range Passes() {
		if p.Name == "" || p.Doc == "" {
			t.Errorf("pass %+v lacks name or doc", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate pass name %q", p.Name)
		}
		seen[p.Name] = true
		if p.System == nil && !structural[p.Name] {
			t.Errorf("pass %q has no System and is not structural", p.Name)
		}
	}
}

func lintFile(t *testing.T, name string) *Report {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "examples", "topologies", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := topology.ParseSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	return lintOne(t, name, spec)
}

// lintOne lints a single-prefix spec, which yields exactly one report.
func lintOne(t *testing.T, name string, spec *topology.Spec) *Report {
	t.Helper()
	reps := LintSpec(name, spec)
	if len(reps) != 1 {
		t.Fatalf("%s: %d reports, want 1", name, len(reps))
	}
	return reps[0]
}

func findingDump(r *Report) string {
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}

// TestBundledTopologyVerdicts pins the exact lint verdict of every bundled
// topology. The fixture list comes from a directory glob, so a newly added
// fixture fails the test until its expected verdict is recorded here —
// verdict coverage can't silently lag the example set.
func TestBundledTopologyVerdicts(t *testing.T) {
	want := map[string]Verdict{
		"broken-cluster.json": VerdictFail, // reflector-less cluster, parent cycle
		"fig13.json":          VerdictRisk, // MED oscillation survives Walton
		"fig14.json":          VerdictPass, // fully meshed RRs, no MED split
		"fig1a.json":          VerdictRisk, // paper's basic 3-cluster cycle
		"fig2.json":           VerdictRisk,
		"hierarchy.json":      VerdictPass,
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "topologies", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no bundled topologies")
	}
	covered := map[string]bool{}
	for _, path := range paths {
		name := filepath.Base(path)
		if strings.HasPrefix(name, "confed-") {
			// Confederation specs use their own loader and linter entry
			// point; they are out of scope for LintSpec.
			continue
		}
		expect, ok := want[name]
		if !ok {
			t.Errorf("%s: new fixture without an expected verdict — add it to the table", name)
			continue
		}
		covered[name] = true
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := topology.ParseSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := lintOne(t, name, spec)
		if rep.Verdict != expect {
			t.Errorf("%s: verdict = %v, want %v; findings:\n%s", name, rep.Verdict, expect, findingDump(rep))
		}
	}
	for name := range want {
		if !covered[name] {
			t.Errorf("%s: listed in the verdict table but not shipped", name)
		}
	}
}
