package sat

import (
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// insertionSortOrder is the branch order and first phases the solver used
// to compute with an insertion sort, kept as the oracle for the counting
// sort that replaced it: constrained variables by descending occurrence
// count, equal counts in index order, each first tried in its majority
// polarity. Occurrences are counted from the input formula under the
// solver's clause rules (duplicate literals count once, tautologies not at
// all), so the oracle does not depend on the solver's storage.
func insertionSortOrder(f *Formula) ([]int, []int8) {
	occ := make(map[Literal]int)
	for _, c := range f.Clauses {
		seen := make(map[Literal]bool)
		for _, l := range c {
			seen[l] = true
		}
		taut := false
		for l := range seen {
			taut = taut || seen[-l]
		}
		if taut {
			continue
		}
		for l := range seen {
			occ[l]++
		}
	}
	var order []int
	phase := make([]int8, f.NumVars+1)
	for v := 1; v <= f.NumVars; v++ {
		pos, neg := occ[Literal(v)], occ[Literal(-v)]
		if pos+neg == 0 {
			continue
		}
		order = append(order, v)
		if neg > pos {
			phase[v] = -1
		} else {
			phase[v] = 1
		}
	}
	counts := func(v int) int { return occ[Literal(v)] + occ[Literal(-v)] }
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i
		for j > 0 && counts(order[j-1]) < counts(v) {
			order[j] = order[j-1]
			j--
		}
		order[j] = v
	}
	return order, phase
}

// TestBranchOrderMatchesInsertionSort pins the solver's branch order, and
// with it every search it makes, on the sixteen BenchmarkSolve3SAT formulas
// and on the prover CNF of topogen.Default() seed 1 (a fixture kept fresh
// by the lint package's TestProverCNFFixture): order and first phases must
// equal the insertion-sort oracle, and the work counters their recorded
// values.
func TestBranchOrderMatchesInsertionSort(t *testing.T) {
	type instance struct {
		name string
		f    *Formula
		want Stats
	}
	random := []Stats{
		{19, 157, 6}, {181, 3236, 182}, {25, 192, 12}, {27, 356, 16},
		{17, 63, 1}, {72, 1050, 57}, {134, 2440, 135}, {36, 522, 19},
		{21, 52, 2}, {27, 338, 14}, {31, 325, 19}, {84, 1358, 69},
		{24, 215, 14}, {138, 2534, 139}, {9, 51, 0}, {97, 1535, 87},
	}
	var cases []instance
	for i, want := range random {
		cases = append(cases, instance{fmt.Sprintf("Random3SAT(60,240,%d)", i), Random3SAT(60, 240, int64(i)), want})
	}
	cases = append(cases, instance{"prove-default-1",
		readGzipDIMACS(t, filepath.Join("testdata", "prove-default-1.cnf.gz")), Stats{Propagations: 4211}})
	for _, c := range cases {
		in := NewInstance(c.f)
		if in.empty {
			t.Fatalf("%s: unexpected empty clause", c.name)
		}
		order, phase := insertionSortOrder(c.f)
		if !slices.Equal(in.order, order) {
			t.Errorf("%s: branch order diverges from the insertion-sort oracle", c.name)
		}
		if !slices.Equal(in.phase, phase) {
			t.Errorf("%s: first phases diverge from the insertion-sort oracle", c.name)
		}
		var st Stats
		SolveStats(c.f, &st)
		if st != c.want {
			t.Errorf("%s: solver stats %+v, want %+v", c.name, st, c.want)
		}
	}
}

func readGzipDIMACS(t *testing.T, path string) *Formula {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	zr, err := gzip.NewReader(fh)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseDIMACS(zr)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
