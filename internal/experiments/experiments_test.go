package experiments

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// row returns the ledger row with the given ID or fails the test.
func row(t *testing.T, id string) Experiment {
	t.Helper()
	x, ok := Find(id)
	if !ok {
		t.Fatalf("no ledger row %s", id)
	}
	return x
}

// TestLedgerRows: the ledger holds E1..E23 once each, in order, and every
// row names its artifact and claim.
func TestLedgerRows(t *testing.T) {
	if len(Ledger) != 23 {
		t.Fatalf("ledger has %d rows, want 23", len(Ledger))
	}
	for i, x := range Ledger {
		if want := fmt.Sprintf("E%d", i+1); x.ID != want {
			t.Errorf("row %d has ID %q, want %q", i, x.ID, want)
		}
		if x.Artifact == "" || x.Claim == "" || x.run == nil {
			t.Errorf("%s: incomplete row %+v", x.ID, x)
		}
		if got, _ := Find(x.ID); got.Claim != x.Claim {
			t.Errorf("Find(%s) returns another row", x.ID)
		}
	}
	if _, ok := Find("E24"); ok {
		t.Error("Find accepts an ID outside the ledger")
	}
}

func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full battery is slow")
	}
	reports := All(Options{Seeds: 4, SweepSizes: []int{2, 4}})
	for i, r := range reports {
		if !r.Pass {
			t.Errorf("%s (%s) FAILED: %s", r.ID, r.Artifact, r.Measured)
		}
		if r.ID != Ledger[i].ID || r.Claim == "" || r.Measured == "" {
			t.Errorf("%s: incomplete report %+v", r.ID, r)
		}
	}
}

func TestIndividualExperiments(t *testing.T) {
	opts := Options{Seeds: 3, SweepSizes: []int{2}}
	for _, x := range Ledger {
		if x.ID == "E19" {
			continue // real TCP sessions: TestE19MultiPrefixTCP
		}
		t.Run(x.ID, func(t *testing.T) {
			if r := x.Run(opts); !r.Pass {
				t.Fatalf("%s failed: %s", r.ID, r.Measured)
			}
		})
	}
}

// TestRunStampsErrors: a row whose run fails still reports its ID,
// Artifact and Claim, measures the error, and does not pass.
func TestRunStampsErrors(t *testing.T) {
	x := Experiment{ID: "EX", Artifact: "art", Claim: "claim",
		run: func(Options) (Report, error) { return Report{Pass: true}, fmt.Errorf("boom") }}
	r := x.Run(Options{})
	if r.ID != "EX" || r.Artifact != "art" || r.Claim != "claim" || r.Measured != "boom" || r.Pass {
		t.Fatalf("error report = %+v", r)
	}
}

func TestE7ReductionReport(t *testing.T) {
	r := row(t, "E7").Run(Options{})
	if !r.Pass {
		t.Fatalf("E7 failed: %s", r.Measured)
	}
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) == 0 {
		t.Fatal("E7 table missing")
	}
}

func TestE8WaltonSampling(t *testing.T) {
	r := row(t, "E8").Run(Options{Seeds: 3}) // non-exhaustive mode
	if !r.Pass {
		t.Fatalf("E8 failed: %s", r.Measured)
	}
	if !strings.Contains(r.Measured, "sampling") {
		t.Fatalf("expected sampling note, got %q", r.Measured)
	}
}

func TestE11OverheadTable(t *testing.T) {
	r := row(t, "E11").Run(Options{Seeds: 2, SweepSizes: []int{2, 3}})
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
	r := row(t, "E19").Run(Options{Seeds: 2})
	if !r.Pass {
		t.Fatalf("E19 failed: %s", r.Measured)
	}
}

func TestE4TableOneReproduction(t *testing.T) {
	r := row(t, "E4").Run(Options{Seeds: 2})
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
	r := row(t, "E23").Run(Options{Seeds: 2})
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
	var reports []Report
	for _, x := range Ledger {
		if x.ID != "E19" {
			reports = append(reports, x.Run(Options{Exhaustive: true}))
		}
	}
	for _, line := range strings.Split(Markdown(reports), "\n") {
		if !have[line] {
			t.Errorf("EXPERIMENTS.md lacks a generated line (regenerate with `go run ./cmd/experiments -exhaustive -markdown`):\n%s", line)
		}
	}
}
