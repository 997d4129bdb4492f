package cli

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/confed"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestLoadSystemFigure(t *testing.T) {
	for _, name := range FigureNames() {
		sys, err := LoadSystem("", name)
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		if sys.N() == 0 {
			t.Fatalf("figure %s empty", name)
		}
	}
	if _, err := LoadSystem("", "99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestLoadSystemFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.Save(f, figures.Fig14().Sys); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sys, err := LoadSystem(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 4 {
		t.Fatalf("loaded %d nodes", sys.N())
	}
	if _, err := LoadSystem(filepath.Join(dir, "missing.json"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadSystemArgErrors(t *testing.T) {
	if _, err := LoadSystem("x", "1a"); err == nil {
		t.Fatal("both sources accepted")
	}
	if _, err := LoadSystem("", ""); err == nil {
		t.Fatal("no source accepted")
	}
}

func TestParsePolicy(t *testing.T) {
	want := map[string]protocol.Policy{
		"classic": protocol.Classic, "walton": protocol.Walton,
		"modified": protocol.Modified, "adaptive": protocol.Adaptive,
	}
	for s, p := range want {
		got, err := ParsePolicy(s)
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestParseOptions(t *testing.T) {
	opts, err := ParseOptions("rfc", "always")
	if err != nil || opts.Order != selection.RFCOrder || opts.MED != selection.AlwaysCompare {
		t.Fatalf("opts = %+v, %v", opts, err)
	}
	opts, err = ParseOptions("", "")
	if err != nil || opts != (selection.Options{}) {
		t.Fatalf("default opts = %+v, %v", opts, err)
	}
	if _, err := ParseOptions("weird", ""); err == nil {
		t.Fatal("bad order accepted")
	}
	if _, err := ParseOptions("", "weird"); err == nil {
		t.Fatal("bad MED mode accepted")
	}
}

func TestParseSchedule(t *testing.T) {
	for _, s := range []string{"", "roundrobin", "allatonce", "random", "subsets"} {
		sch, err := ParseSchedule(s, 3, 1)
		if err != nil {
			t.Fatalf("schedule %q: %v", s, err)
		}
		if got := sch.Next(); len(got) == 0 {
			t.Fatalf("schedule %q produced empty set", s)
		}
	}
	if _, err := ParseSchedule("bogus", 3, 1); err == nil {
		t.Fatal("bogus schedule accepted")
	}
}

// TestShippedTopologies: every topology JSON shipped under
// examples/topologies must load and match its in-code figure (where one
// exists).
func TestShippedTopologies(t *testing.T) {
	dir := "../../examples/topologies"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no shipped topologies")
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "broken-") {
			// Deliberately broken lint fixtures must NOT load; package lint
			// asserts their diagnostics.
			if _, err := LoadSystem(filepath.Join(dir, e.Name()), ""); err == nil {
				t.Fatalf("%s: broken fixture unexpectedly loads", e.Name())
			}
			continue
		}
		if strings.HasPrefix(e.Name(), "confed-") {
			// Confederations have their own loader.
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := confed.Load(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if sys.N() == 0 {
				t.Fatalf("%s: degenerate confederation", e.Name())
			}
			continue
		}
		sys, err := LoadSystem(filepath.Join(dir, e.Name()), "")
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if sys.N() == 0 || sys.NumExits() == 0 {
			t.Fatalf("%s: degenerate system", e.Name())
		}
	}
	// fig13.json must be the pinned Fig13 instance.
	sys, err := LoadSystem(filepath.Join(dir, "fig13.json"), "")
	if err != nil {
		t.Fatal(err)
	}
	ref := figures.Fig13().Sys
	if sys.N() != ref.N() || sys.NumExits() != ref.NumExits() {
		t.Fatal("fig13.json diverged from the in-code figure")
	}
}

func TestParseWorkloadParams(t *testing.T) {
	base := workload.Default(3)
	p, err := ParseWorkloadParams("", base)
	if err != nil || p != base {
		t.Fatalf("empty override changed the family: %+v, %v", p, err)
	}
	p, err = ParseWorkloadParams(" clusters=4 , MaxMED=2,exits=8", base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Clusters != 4 || p.MaxMED != 2 || p.Exits != 8 {
		t.Fatalf("overrides not applied: %+v", p)
	}
	if p.ASes != base.ASes || p.MaxCost != base.MaxCost {
		t.Fatalf("untouched fields changed: %+v", p)
	}
	for _, bad := range []string{
		"widgets=3",      // unknown key
		"clusters",       // no value
		"clusters=three", // not an int
		"clusters=0",     // fails Validate
		"minclients=5,maxclients=2",
	} {
		if _, err := ParseWorkloadParams(bad, base); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// Unknown-key errors must list the valid keys.
	_, err = ParseWorkloadParams("widgets=3", base)
	if err == nil || !strings.Contains(err.Error(), "clusters") {
		t.Errorf("unknown-key error does not list valid keys: %v", err)
	}
}

func TestParseChurnSpec(t *testing.T) {
	base := churn.DefaultSpec()
	spec, err := ParseChurnSpec("", base)
	if err != nil || spec != base {
		t.Fatalf("empty override changed the workload: %+v, %v", spec, err)
	}
	spec, err = ParseChurnSpec(" rate=40 , Period=500,flap=0.3,seed=9", base)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rate != 40 || spec.Period != 500 || spec.FlapProb != 0.3 || spec.Seed != 9 {
		t.Fatalf("overrides not applied: %+v", spec)
	}
	if spec.Prefixes != base.Prefixes || spec.Burst != base.Burst {
		t.Fatalf("untouched fields changed: %+v", spec)
	}
	for _, bad := range []string{
		"widgets=3",  // unknown key
		"rate",       // no value
		"rate=abc",   // not a float
		"rate=-3",    // negative rate fails Validate
		"rate=0",     // zero rate fails Validate
		"period=0",   // zero round length
		"burst=0",    // empty burst window
		"burst=2000", // burst past the default period
		"flap=1.5",   // probability out of range
		"prefixes=0", // no prefixes
	} {
		if _, err := ParseChurnSpec(bad, base); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// Unknown-key errors must list the valid keys.
	if _, err := ParseChurnSpec("widgets=3", base); err == nil || !strings.Contains(err.Error(), "rate") {
		t.Errorf("unknown-key error does not list valid keys: %v", err)
	}
}

func TestParseCrossedSpec(t *testing.T) {
	base := workload.CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}
	spec, err := ParseCrossedSpec("dotted=0.25,twoclienton=1", base)
	if err != nil {
		t.Fatal(err)
	}
	if spec.DottedProb != 0.25 || spec.TwoClientOn != 1 || spec.Clusters != 4 {
		t.Fatalf("overrides not applied: %+v", spec)
	}
	for _, bad := range []string{"exits=3", "dotted=x", "dotted=1.5", "clusters=0"} {
		if _, err := ParseCrossedSpec(bad, base); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestParseErrorsNameFlagAndKey pins the error-context contract: a bad
// value must surface the flag being parsed and the offending key, never a
// raw strconv message with no context.
func TestParseErrorsNameFlagAndKey(t *testing.T) {
	cases := []struct {
		parse func(string) error
		input string
		want  []string
	}{
		{func(s string) error { _, err := ParseWorkloadParams(s, workload.Default(3)); return err },
			"clusters=three", []string{"-params", "clusters", `"three" is not an integer`}},
		{func(s string) error { _, err := ParseWorkloadParams(s, workload.Default(3)); return err },
			"maxcost=1e9", []string{"-params", "maxcost", "is not an integer"}},
		{func(s string) error { _, err := ParseChurnSpec(s, churn.DefaultSpec()); return err },
			"rate=fast", []string{"-churn", "rate", `"fast" is not a number`}},
		{func(s string) error { _, err := ParseChurnSpec(s, churn.DefaultSpec()); return err },
			"seed=abc", []string{"-churn", "seed", "is not an integer"}},
		{func(s string) error { _, err := ParseCrossedSpec(s, workload.CrossedSpec{}); return err },
			"dotted=x", []string{"-params", "dotted", "is not a number"}},
	}
	for _, tc := range cases {
		err := tc.parse(tc.input)
		if err == nil {
			t.Errorf("%q accepted", tc.input)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error for %q = %q, missing %q", tc.input, err, want)
			}
		}
	}
}

// TestNonFiniteRejected: strconv.ParseFloat accepts NaN and Inf, and every
// range comparison is false for NaN, so the flag parser and each spec's
// Validate must reject non-finite numbers themselves rather than run a
// workload that silently never flaps or draws one event per round.
func TestNonFiniteRejected(t *testing.T) {
	parseChurn := func(s string) error { _, err := ParseChurnSpec(s, churn.DefaultSpec()); return err }
	parseCrossed := func(s string) error {
		_, err := ParseCrossedSpec(s, workload.CrossedSpec{Clusters: 4, ASes: 2, MaxMED: 2, DottedProb: 0.5})
		return err
	}
	churnSpec := func(mut func(*churn.Spec)) error {
		s := churn.DefaultSpec()
		mut(&s)
		return s.Validate()
	}
	crossedSpec := workload.CrossedSpec{Clusters: 4, ASes: 2, MaxMED: 2, DottedProb: math.NaN()}
	faultPlan := &faults.Plan{Seed: 1, Drop: math.NaN()}
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"-churn rate=NaN", parseChurn("rate=NaN")},
		{"-churn rate=Inf", parseChurn("rate=Inf")},
		{"-churn rate=-Inf", parseChurn("rate=-Inf")},
		{"-churn flap=NaN", parseChurn("flap=NaN")},
		{"-params dotted=NaN", parseCrossed("dotted=NaN")},
		{"-params dotted=+Inf", parseCrossed("dotted=+Inf")},
		{"churn.Spec Rate NaN", churnSpec(func(s *churn.Spec) { s.Rate = math.NaN() })},
		{"churn.Spec Rate +Inf", churnSpec(func(s *churn.Spec) { s.Rate = math.Inf(1) })},
		{"churn.Spec FlapProb NaN", churnSpec(func(s *churn.Spec) { s.FlapProb = math.NaN() })},
		{"CrossedSpec DottedProb NaN", crossedSpec.Validate()},
		{"faults.Plan Drop NaN", faultPlan.Validate(0)},
	} {
		if tc.err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestParseFailureLeavesBaseUntouched: a failing setter must not have
// half-applied the value before the error was noticed.
func TestParseFailureLeavesBaseUntouched(t *testing.T) {
	base := churn.DefaultSpec()
	if _, err := ParseChurnSpec("rate=40,period=xyz", base); err == nil {
		t.Fatal("bad period accepted")
	}
	// base is passed by value, so re-parse the valid prefix and check the
	// failing key's destination kept its default.
	spec, err := ParseChurnSpec("rate=40", base)
	if err != nil || spec.Period != base.Period {
		t.Fatalf("period = %d (want default %d), err %v", spec.Period, base.Period, err)
	}
}

func TestParseCodec(t *testing.T) {
	for name, want := range map[string]string{"": "private", "private": "private", "bgp4": "bgp4"} {
		c, err := ParseCodec(name)
		if err != nil {
			t.Fatalf("ParseCodec(%q): %v", name, err)
		}
		if c.Name() != want {
			t.Fatalf("ParseCodec(%q).Name() = %q, want %q", name, c.Name(), want)
		}
	}
	_, err := ParseCodec("bgp5")
	if err == nil || !strings.Contains(err.Error(), "bgp5") || !strings.Contains(err.Error(), "private") {
		t.Fatalf("unknown codec error = %v, want the name and the valid set", err)
	}
}
