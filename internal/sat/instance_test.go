package sat

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"
)

// TestSolveStatsZeroedOnEmptyClause: a formula with an empty clause is
// decided without search, and a reused Stats must then read zero rather
// than keep the previous solve's counters.
func TestSolveStatsZeroedOnEmptyClause(t *testing.T) {
	var st Stats
	SolveStats(Random3SAT(60, 240, 1), &st)
	if st == (Stats{}) {
		t.Fatal("the warm-up formula did no work; pick one that does")
	}
	f := &Formula{NumVars: 2, Clauses: []Clause{{1, 2}, {}}}
	if _, ok := SolveStats(f, &st); ok {
		t.Fatal("a formula with an empty clause reported satisfiable")
	}
	if st != (Stats{}) {
		t.Fatalf("stats after an empty-clause formula = %+v, want zero", st)
	}
}

// withClause is f with c appended, sharing f's clauses.
func withClause(f *Formula, c Clause) *Formula {
	return &Formula{NumVars: f.NumVars, Clauses: append(f.Clauses[:len(f.Clauses):len(f.Clauses)], c)}
}

// blockModel is the clause that rules out exactly the given assignment.
func blockModel(model []bool) Clause {
	var c Clause
	for v := 1; v < len(model); v++ {
		if model[v] {
			c = append(c, Literal(-v))
		} else {
			c = append(c, Literal(v))
		}
	}
	return c
}

// TestWheelSolveMatchesFromScratch: SolveWith derives its search state
// from the instance's set-up with one clause patched in, and that state —
// clause arena, offsets, watch lists in order, units, branch order, first
// phases — must equal a fresh set-up of the formula plus the clause, so
// the search, its model and its Stats are the same. The instances are the
// prover CNF of topogen.Default() seed 1 and the sixteen BenchmarkSolve3SAT
// formulas, each blocked by its first model (an unsatisfiable one by
// (x1 v -x2 v x3)), plus the extra clauses whose set-up differs: a unit,
// a tautology, duplicate literals and an empty clause.
func TestWheelSolveMatchesFromScratch(t *testing.T) {
	type instance struct {
		name string
		f    *Formula
	}
	cases := []instance{{"prove-default-1", readGzipDIMACS(t, filepath.Join("testdata", "prove-default-1.cnf.gz"))}}
	for i := 0; i < 16; i++ {
		cases = append(cases, instance{fmt.Sprintf("Random3SAT(60,240,%d)", i), Random3SAT(60, 240, int64(i))})
	}
	for _, c := range cases {
		in := NewInstance(c.f)
		model, ok := in.Solve(nil)
		block := Clause{1, -2, 3}
		if ok {
			block = blockModel(model)
		}
		extras := []Clause{block}
		if c.name == "Random3SAT(60,240,0)" {
			extras = append(extras, Clause{-7}, Clause{4, -4, 9}, Clause{5, -6, 5, -6}, Clause{})
		}
		for _, extra := range extras {
			name := fmt.Sprintf("%s + %v", c.name, extra)
			if len(extra) > 8 {
				name = c.name + " + block"
			}
			fresh := withClause(c.f, extra)
			want, got := NewInstance(fresh).newSolver(), in.newSolver(extra)
			if (want == nil) != (got == nil) {
				t.Fatalf("%s: derived set-up nil = %v, fresh nil = %v", name, got == nil, want == nil)
			}
			if want != nil {
				sameSetup(t, name, got, want)
			}
			var stWant, stGot Stats
			mWant, okWant := SolveStats(fresh, &stWant)
			mGot, okGot := in.SolveWith(extra, &stGot)
			if okGot != okWant || !slices.Equal(mGot, mWant) || stGot != stWant {
				t.Errorf("%s: SolveWith = (%v, %+v), from scratch (%v, %+v), models equal: %v",
					name, okGot, stGot, okWant, stWant, slices.Equal(mGot, mWant))
			}
			if okGot && !fresh.Eval(mGot) {
				t.Errorf("%s: model does not satisfy the formula plus the clause", name)
			}
		}
	}
}

func sameSetup(t *testing.T, name string, got, want *solver) {
	t.Helper()
	switch {
	case got.nv != want.nv:
		t.Errorf("%s: %d variables, want %d", name, got.nv, want.nv)
	case !slices.Equal(got.lits, want.lits) || !slices.Equal(got.start, want.start):
		t.Errorf("%s: clause arena differs from a fresh set-up", name)
	case !slices.EqualFunc(got.watches, want.watches, slices.Equal[[]int32]):
		t.Errorf("%s: watch lists differ from a fresh set-up", name)
	case !slices.Equal(got.units, want.units):
		t.Errorf("%s: units %v, want %v", name, got.units, want.units)
	case !slices.Equal(got.order, want.order) || !slices.Equal(got.phase, want.phase):
		t.Errorf("%s: branch order or first phases differ from a fresh set-up", name)
	}
}
