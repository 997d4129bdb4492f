package sat

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParseDIMACS: the parser must never panic and any formula it accepts
// must survive a write/parse round trip.
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p cnf 3 2\n1 -2 0\n2 3 0\n")
	f.Add("c comment\np cnf 1 1\n1 0")
	f.Add("p cnf 0 0\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		formula, err := ParseDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, formula); err != nil {
			t.Fatalf("accepted formula failed to write: %v", err)
		}
		again, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if again.String() != formula.String() {
			t.Fatalf("round trip changed formula: %q vs %q", formula, again)
		}
	})
}

// FuzzSolveAgreesWithEval: on any parseable small formula, a returned
// assignment must actually satisfy it, and the verdict must equal the
// brute-force one, so a set-up bug that drops a clause or loses a watch
// cannot hide behind a wrong UNSAT. Solving all but the last clause with
// the last one passed to SolveWith must give the same search as solving
// the whole formula.
func FuzzSolveAgreesWithEval(f *testing.F) {
	f.Add("p cnf 3 2\n1 -2 0\n2 3 0\n")
	f.Add("p cnf 2 2\n1 0\n-1 0\n")
	f.Add("p cnf 3 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 3 -3 0\n")
	f.Add("p cnf 4 3\n1 2 3 0\n-1 -2 0\n2 2 -4 0\n")
	// Every sign pattern over three variables: unsatisfiable, and
	// satisfiable once any one clause is lost.
	f.Add("p cnf 3 8\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		formula, err := ParseDIMACS(strings.NewReader(in))
		if err != nil || formula.NumVars > 16 || len(formula.Clauses) > 64 {
			return
		}
		var st Stats
		a, ok := SolveStats(formula, &st)
		if ok && !formula.Eval(a) {
			t.Fatalf("Solve returned non-satisfying assignment for %s", formula)
		}
		if _, want := BruteForce(formula); ok != want {
			t.Fatalf("Solve says satisfiable = %v, brute force %v, for %s", ok, want, formula)
		}
		if n := len(formula.Clauses); n > 0 {
			head := &Formula{NumVars: formula.NumVars, Clauses: formula.Clauses[:n-1]}
			var st2 Stats
			a2, ok2 := NewInstance(head).SolveWith(formula.Clauses[n-1], &st2)
			if ok2 != ok || !slices.Equal(a2, a) || st2 != st {
				t.Fatalf("SolveWith(last clause) = (%v, %+v), whole formula (%v, %+v), for %s", ok2, st2, ok, st, formula)
			}
		}
	})
}
