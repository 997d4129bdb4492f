// Package sat provides the 3-SAT substrate for the NP-completeness result
// of Section 5: CNF formulas, a DIMACS reader/writer, a DPLL solver with a
// brute-force cross-check, random formula generation, and the reduction
// from 3-SAT to STABLE I-BGP WITH ROUTE REFLECTION.
//
// The reduction follows the architecture of the paper's proof — bistable
// variable gadgets whose two stable solutions encode the truth value, and
// clause gadgets that have no stable solution unless a satisfied literal's
// exit path is visible — with concrete gadget graphs re-derived from the
// figures' stated properties (the figures themselves were not in the
// supplied text; see DESIGN.md). The variable gadget is the Figure 2
// two-solution configuration; the clause gadget is the Figure 1(a)
// MED oscillator, which locks onto any sufficiently cheap externally
// visible route and oscillates forever when none exists.
package sat

import (
	"errors"
	"fmt"
	"sort"
)

// Literal is a signed variable reference: +v is the variable v, -v its
// negation. Variables are numbered from 1.
type Literal int

// Var returns the literal's variable (always positive).
func (l Literal) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Positive reports whether the literal is unnegated.
func (l Literal) Positive() bool { return l > 0 }

// Clause is a disjunction of literals.
type Clause []Literal

// Formula is a CNF formula.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// Validate checks structural sanity: variables in range, no zero literals.
func (f *Formula) Validate() error {
	if f.NumVars < 0 {
		return errors.New("sat: negative variable count")
	}
	for i, c := range f.Clauses {
		if len(c) == 0 {
			continue // empty clause: unsatisfiable but well-formed
		}
		for _, l := range c {
			if l == 0 {
				return fmt.Errorf("sat: clause %d contains zero literal", i)
			}
			if l.Var() > f.NumVars {
				return fmt.Errorf("sat: clause %d references variable %d > %d", i, l.Var(), f.NumVars)
			}
		}
	}
	return nil
}

// Normalize dedupes literals within clauses and drops tautological clauses
// (containing both a literal and its negation) — the paper's WLOG
// assumption that no clause contains a variable and its negation.
func (f *Formula) Normalize() {
	out := f.Clauses[:0]
	for _, c := range f.Clauses {
		seen := map[Literal]bool{}
		taut := false
		var nc Clause
		for _, l := range c {
			if seen[l] {
				continue
			}
			if seen[-l] {
				taut = true
				break
			}
			seen[l] = true
			nc = append(nc, l)
		}
		if taut {
			continue
		}
		sort.Slice(nc, func(i, j int) bool { return nc[i] < nc[j] })
		out = append(out, nc)
	}
	f.Clauses = out
}

// Eval reports whether the assignment (assign[v] is the value of variable
// v; index 0 unused) satisfies the formula.
func (f *Formula) Eval(assign []bool) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if assign[l.Var()] == l.Positive() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// String renders the formula compactly, e.g. (x1 v -x2) ^ (x2 v x3).
func (f *Formula) String() string {
	if len(f.Clauses) == 0 {
		return "true"
	}
	s := ""
	for i, c := range f.Clauses {
		if i > 0 {
			s += " ^ "
		}
		s += "("
		for j, l := range c {
			if j > 0 {
				s += " v "
			}
			if l < 0 {
				s += fmt.Sprintf("-x%d", l.Var())
			} else {
				s += fmt.Sprintf("x%d", l.Var())
			}
		}
		s += ")"
	}
	return s
}
