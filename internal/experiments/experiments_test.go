package experiments

import (
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full battery is slow")
	}
	reports := All(Options{Seeds: 4, SweepSizes: []int{2, 4}})
	if len(reports) != 23 {
		t.Fatalf("got %d reports, want 23", len(reports))
	}
	for _, r := range reports {
		if !r.Pass {
			t.Errorf("%s (%s) FAILED: %s", r.ID, r.Artifact, r.Measured)
		}
		if r.ID == "" || r.Claim == "" || r.Measured == "" {
			t.Errorf("%s: incomplete report %+v", r.ID, r)
		}
	}
}

func TestIndividualExperiments(t *testing.T) {
	opts := Options{Seeds: 3, SweepSizes: []int{2}}
	cases := []struct {
		name string
		run  func(Options) Report
	}{
		{"E1", E1Fig1a}, {"E2", E2Fig1b}, {"E3", E3Fig2}, {"E4", E4Fig3},
		{"E5", E5VariableGadget}, {"E6", E6ClauseGadget},
		{"E9", E9Loop}, {"E10", E10Determinism},
		{"E12", E12Flush}, {"E13", E13LoopFree}, {"E14", E14Fig12},
		{"E15", E15Adaptive}, {"E16", E16Confederation},
		{"E17", E17DeepHierarchy}, {"E18", E18SyncConvergence},
		{"E20", E20MetricAdjustment}, {"E21", E21EBGPChurn},
		{"E22", E22MEDPrevalence}, {"E23", E23Census},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.run(opts)
			if !r.Pass {
				t.Fatalf("%s failed: %s", r.ID, r.Measured)
			}
		})
	}
}

func TestE7ReductionReport(t *testing.T) {
	r := E7Reduction(Options{})
	if !r.Pass {
		t.Fatalf("E7 failed: %s", r.Measured)
	}
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) == 0 {
		t.Fatal("E7 table missing")
	}
}

func TestE8WaltonSampling(t *testing.T) {
	r := E8Walton(Options{Seeds: 3}) // non-exhaustive mode
	if !r.Pass {
		t.Fatalf("E8 failed: %s", r.Measured)
	}
	if !strings.Contains(r.Measured, "sampling") {
		t.Fatalf("expected sampling note, got %q", r.Measured)
	}
}

func TestE11OverheadTable(t *testing.T) {
	r := E11Overhead(Options{Seeds: 2, SweepSizes: []int{2, 3}})
	if !r.Pass {
		t.Fatalf("E11 failed: %s", r.Measured)
	}
	// 2 sizes x 3 policies.
	if len(r.Tables[0].Rows) != 6 {
		t.Fatalf("table rows = %d, want 6", len(r.Tables[0].Rows))
	}
}

func TestMarkdownRendering(t *testing.T) {
	reports := []Report{
		{ID: "EX", Artifact: "art", Claim: "claim", Measured: "meas", Pass: true,
			Tables: []Table{{Title: "T", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}}},
		{ID: "EY", Artifact: "art2", Claim: "c2", Measured: "m2", Pass: false},
	}
	md := Markdown(reports)
	for _, want := range []string{"| EX |", "PASS", "FAIL", "### EX — T", "| a | b |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestE19MultiPrefixTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("uses real TCP sessions")
	}
	r := E19MultiPrefix(Options{Seeds: 2})
	if !r.Pass {
		t.Fatalf("E19 failed: %s", r.Measured)
	}
}

func TestE4TableOneReproduction(t *testing.T) {
	r := E4Fig3(Options{Seeds: 2})
	if !r.Pass {
		t.Fatalf("E4 failed: %s", r.Measured)
	}
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) < 10 {
		t.Fatalf("reproduced Table 1 missing or too short: %d rows", len(r.Tables[0].Rows))
	}
}

// TestE23ShardsOnEveryHost: E23's determinism check must compare one shard
// against several even where GOMAXPROCS is 1, or it compares a run with
// itself.
func TestE23ShardsOnEveryHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := E23Census(Options{Seeds: 2})
	m := regexp.MustCompile(`shards=1 vs shards=(\d+) `).FindStringSubmatch(r.Measured)
	if m == nil {
		t.Fatalf("E23 row names no shard comparison: %s", r.Measured)
	}
	if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Fatalf("E23 compares shards=1 with shards=%d under GOMAXPROCS 1: %s", n, r.Measured)
	}
	if !r.Pass {
		t.Fatalf("E23 failed: %s", r.Measured)
	}
}

// TestClaimTableMatchesExperimentsMD regenerates the claim table the way
// `experiments -exhaustive -markdown` does and requires every line of it to
// appear verbatim in EXPERIMENTS.md, so the checked-in table cannot drift
// from the code. E19 is left out: its fixed point depends on TCP timing by
// design, so its row is not reproducible byte for byte.
func TestClaimTableMatchesExperimentsMD(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the exhaustive battery")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		have[line] = true
	}
	opts := Options{Exhaustive: true}
	opts.fill()
	reports := []Report{
		E1Fig1a(opts), E2Fig1b(opts), E3Fig2(opts), E4Fig3(opts),
		E5VariableGadget(opts), E6ClauseGadget(opts), E7Reduction(opts),
		E8Walton(opts), E9Loop(opts), E10Determinism(opts),
		E11Overhead(opts), E12Flush(opts), E13LoopFree(opts), E14Fig12(opts),
		E15Adaptive(opts), E16Confederation(opts), E17DeepHierarchy(opts),
		E18SyncConvergence(opts), E20MetricAdjustment(opts),
		E21EBGPChurn(opts), E22MEDPrevalence(opts), E23Census(opts),
	}
	for _, line := range strings.Split(Markdown(reports), "\n") {
		if !have[line] {
			t.Errorf("EXPERIMENTS.md lacks a generated line (regenerate with `go run ./cmd/experiments -exhaustive -markdown`):\n%s", line)
		}
	}
}
