package sat

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func mustFormula(t *testing.T, nv int, clauses ...Clause) *Formula {
	t.Helper()
	f := &Formula{NumVars: nv, Clauses: clauses}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLiteralBasics(t *testing.T) {
	l := Literal(-3)
	if l.Var() != 3 || l.Positive() || -l != 3 {
		t.Fatal("literal accessors wrong")
	}
	p := Literal(2)
	if p.Var() != 2 || !p.Positive() || -p != -2 {
		t.Fatal("literal accessors wrong")
	}
}

func TestValidate(t *testing.T) {
	bad := &Formula{NumVars: 1, Clauses: []Clause{{0}}}
	if bad.Validate() == nil {
		t.Fatal("zero literal accepted")
	}
	bad2 := &Formula{NumVars: 1, Clauses: []Clause{{2}}}
	if bad2.Validate() == nil {
		t.Fatal("out-of-range variable accepted")
	}
	bad3 := &Formula{NumVars: -1}
	if bad3.Validate() == nil {
		t.Fatal("negative NumVars accepted")
	}
}

func TestNormalize(t *testing.T) {
	f := mustFormula(t, 2, Clause{1, 1, -2}, Clause{1, -1}, Clause{2})
	f.Normalize()
	if len(f.Clauses) != 2 {
		t.Fatalf("Normalize kept %d clauses, want 2 (tautology dropped)", len(f.Clauses))
	}
	if len(f.Clauses[0]) != 2 {
		t.Fatalf("duplicate literal kept: %v", f.Clauses[0])
	}
}

func TestEvalAndString(t *testing.T) {
	f := mustFormula(t, 3, Clause{1, -2}, Clause{2, 3})
	if !f.Eval([]bool{false, true, false, true}) {
		t.Fatal("satisfying assignment rejected")
	}
	if f.Eval([]bool{false, false, true, false}) {
		t.Fatal("falsifying assignment accepted")
	}
	if s := f.String(); !strings.Contains(s, "x1") || !strings.Contains(s, "-x2") {
		t.Fatalf("String = %q", s)
	}
	empty := &Formula{}
	if empty.String() != "true" {
		t.Fatal("empty formula should render as true")
	}
}

func TestSolveSimple(t *testing.T) {
	f := mustFormula(t, 2, Clause{1}, Clause{-1, 2})
	a, ok := Solve(f)
	if !ok {
		t.Fatal("satisfiable formula reported unsat")
	}
	if !f.Eval(a) {
		t.Fatalf("returned assignment %v does not satisfy", a)
	}
	if !a[1] || !a[2] {
		t.Fatalf("unit propagation should force x1, x2 true: %v", a)
	}
}

func TestSolveUnsat(t *testing.T) {
	f := mustFormula(t, 1, Clause{1}, Clause{-1})
	if _, ok := Solve(f); ok {
		t.Fatal("unsat formula reported sat")
	}
	empty := mustFormula(t, 2, Clause{})
	if _, ok := Solve(empty); ok {
		t.Fatal("formula with empty clause reported sat")
	}
}

func TestSolveEmptyFormula(t *testing.T) {
	f := mustFormula(t, 3)
	if _, ok := Solve(f); !ok {
		t.Fatal("empty formula must be satisfiable")
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		f := Random3SAT(5, 3+int(seed%15+15)%15, seed)
		_, sat1 := Solve(f)
		_, sat2 := bruteForce(f)
		if sat1 != sat2 {
			return false
		}
		if sat1 {
			a, _ := Solve(f)
			return f.Eval(a)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForcePanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 25 variables")
		}
	}()
	bruteForce(&Formula{NumVars: 25})
}

func TestRandom3SATShape(t *testing.T) {
	f := Random3SAT(6, 10, 42)
	if f.NumVars != 6 || len(f.Clauses) != 10 {
		t.Fatalf("shape %d/%d", f.NumVars, len(f.Clauses))
	}
	for _, c := range f.Clauses {
		if len(c) != 3 {
			t.Fatalf("clause width %d", len(c))
		}
		vars := map[int]bool{}
		for _, l := range c {
			if vars[l.Var()] {
				t.Fatalf("repeated variable in clause %v", c)
			}
			vars[l.Var()] = true
		}
	}
	// Deterministic for equal seeds.
	g := Random3SAT(6, 10, 42)
	if f.String() != g.String() {
		t.Fatal("same seed produced different formulas")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	f := Random3SAT(5, 8, 7)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != f.String() {
		t.Fatalf("round trip changed formula:\n%s\n%s", f, g)
	}
}

func TestParseDIMACS(t *testing.T) {
	in := "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || len(f.Clauses) != 2 {
		t.Fatalf("parsed %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	if f.Clauses[0][1] != -2 {
		t.Fatalf("clause 0 = %v", f.Clauses[0])
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"",                       // no header
		"p cnf x 2\n",            // malformed header
		"p cnf 3 2\np cnf 3 2\n", // duplicate header
		"1 0\np cnf 1 1\n",       // clause before header
		"p cnf 1 1\nzork 0\n",    // bad literal
		"p cnf 1 2\n1 0\n",       // clause count mismatch
		"p cnf 1 1\n5 0\n",       // variable out of range
	}
	for _, in := range cases {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

func TestParseDIMACSMissingFinalZero(t *testing.T) {
	f, err := ParseDIMACS(strings.NewReader("p cnf 2 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 1 || len(f.Clauses[0]) != 2 {
		t.Fatalf("clauses = %v", f.Clauses)
	}
}
