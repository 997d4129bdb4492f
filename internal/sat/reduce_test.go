package sat

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/explore"
	"repro/internal/protocol"
	"repro/internal/selection"
)

func reduce(t *testing.T, f *Formula) *Reduction {
	t.Helper()
	r, err := Reduce(f)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// E5: the variable gadget alone has exactly two stable solutions.
func TestVariableGadgetBistable(t *testing.T) {
	r := reduce(t, mustFormula(t, 1)) // one variable, no clauses
	e := protocol.New(r.Sys, protocol.Classic, selection.Options{})
	enum := explore.EnumerateStableClassic(e, 0)
	if enum.Truncated {
		t.Fatal("enumeration truncated")
	}
	if len(enum.Solutions) != 2 {
		t.Fatalf("variable gadget has %d stable solutions, want 2", len(enum.Solutions))
	}
	g := r.Vars[0]
	states := map[bool]bool{}
	for _, s := range enum.Solutions {
		a, ok := r.AssignmentFromSnapshot(s)
		if !ok {
			t.Fatalf("stable solution not in a pure gadget state: %v", s)
		}
		states[a[1]] = true
	}
	if !states[true] || !states[false] {
		t.Fatalf("expected one true and one false solution, got %v", states)
	}
	_ = g
}

// E6: the clause gadget alone (a clause over variables that do not exist —
// modelled as an empty clause, which gets no pacifier links) has no stable
// solution.
func TestClauseGadgetAloneOscillates(t *testing.T) {
	r := reduce(t, mustFormula(t, 0, Clause{}))
	e := protocol.New(r.Sys, protocol.Classic, selection.Options{})
	enum := explore.EnumerateStableClassic(e, 0)
	if enum.Truncated {
		t.Fatal("enumeration truncated")
	}
	if len(enum.Solutions) != 0 {
		t.Fatalf("isolated clause gadget has %d stable solutions, want 0", len(enum.Solutions))
	}
	res := protocol.Run(e, protocol.RoundRobin(r.Sys.N()), protocol.RunOptions{MaxSteps: 5000})
	if res.Outcome != protocol.Cycled {
		t.Fatalf("outcome = %v, want cycled", res.Outcome)
	}
}

// E7 constructive direction: a satisfying assignment yields a stable
// solution, checked by the polynomial-time certificate (engine.Stable).
func TestSatisfiableFormulaStabilizes(t *testing.T) {
	cases := []*Formula{
		mustFormula(t, 1, Clause{1}),
		mustFormula(t, 2, Clause{1, -2}, Clause{-1, 2}),
		mustFormula(t, 3, Clause{1, 2, 3}, Clause{-1, -2, 3}, Clause{1, -2, -3}),
	}
	for i, f := range cases {
		assign, ok := Solve(f)
		if !ok {
			t.Fatalf("case %d: solver says unsat", i)
		}
		r := reduce(t, f)
		e, res := r.StabilizeWithAssignment(assign, 20000)
		if res.Outcome != protocol.Converged {
			t.Fatalf("case %d: outcome = %v with assignment %v", i, res.Outcome, assign)
		}
		if !e.Stable() {
			t.Fatalf("case %d: certificate check failed", i)
		}
		// Decode the assignment back out of the stable configuration.
		got, ok := r.AssignmentFromSnapshot(res.Final)
		if !ok {
			t.Fatalf("case %d: stable snapshot not in pure gadget states", i)
		}
		if !f.Eval(got) {
			t.Fatalf("case %d: decoded assignment %v does not satisfy %s", i, got, f)
		}
		for j := range f.Clauses {
			if !r.pacifierVisibleAt(e, j) {
				t.Fatalf("case %d: clause %d has no visible pacifier in stable state", i, j)
			}
		}
	}
}

// E7: a *falsifying* assignment leaves at least one clause oscillating.
func TestFalsifyingAssignmentOscillates(t *testing.T) {
	f := mustFormula(t, 2, Clause{1, 2})
	r := reduce(t, f)
	_, res := r.StabilizeWithAssignment([]bool{false, false, false}, 5000)
	if res.Outcome == protocol.Converged {
		t.Fatalf("falsifying assignment converged: %v", res.Final)
	}
}

// E7 converse direction: for an unsatisfiable formula no schedule
// stabilises the instance.
func TestUnsatisfiableFormulaNeverStabilizes(t *testing.T) {
	f := mustFormula(t, 1, Clause{1}, Clause{-1})
	if _, ok := Solve(f); ok {
		t.Fatal("setup: formula should be unsat")
	}
	r := reduce(t, f)

	// Both lock-in schedules (the only two assignments) fail.
	for _, assign := range [][]bool{{false, true}, {false, false}} {
		_, res := r.StabilizeWithAssignment(assign, 5000)
		if res.Outcome == protocol.Converged {
			t.Fatalf("assignment %v converged on unsat formula", assign)
		}
	}
	// Deterministic schedules cycle.
	e := protocol.New(r.Sys, protocol.Classic, selection.Options{})
	res := protocol.Run(e, protocol.RoundRobin(r.Sys.N()), protocol.RunOptions{MaxSteps: 5000})
	if res.Outcome != protocol.Cycled {
		t.Fatalf("round robin: %v, want cycled", res.Outcome)
	}
	// Randomised fair schedules never converge either.
	e.ResetAll()
	for _, r2 := range protocol.RunSeeds(e, 6, 3000) {
		if r2.Outcome == protocol.Converged {
			t.Fatal("random schedule converged on unsat formula")
		}
	}
}

// The reduction of a satisfiable formula still converges from a cold start
// under round-robin when the all-true assignment happens to satisfy it
// (the schedule's natural lock-in).
func TestColdStartRoundRobinAllTrue(t *testing.T) {
	f := mustFormula(t, 2, Clause{1, 2}, Clause{1, -2})
	r := reduce(t, f)
	e := protocol.New(r.Sys, protocol.Classic, selection.Options{})
	res := protocol.Run(e, protocol.RoundRobin(r.Sys.N()), protocol.RunOptions{MaxSteps: 20000})
	if res.Outcome != protocol.Converged {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	a, ok := r.AssignmentFromSnapshot(res.Final)
	if !ok || !f.Eval(a) {
		t.Fatalf("cold-start solution invalid: %v ok=%v", a, ok)
	}
}

// The modified protocol converges on every reduction instance — including
// unsatisfiable ones — since Theorem 7 is unconditional. (The modified
// protocol "solves" nothing: it just routes; the NP-hardness applies to
// classic I-BGP only.)
func TestModifiedConvergesOnReductions(t *testing.T) {
	for _, f := range []*Formula{
		mustFormula(t, 1, Clause{1}, Clause{-1}), // unsat
		mustFormula(t, 2, Clause{1, 2}),          // sat
	} {
		r := reduce(t, f)
		e := protocol.New(r.Sys, protocol.Modified, selection.Options{})
		res := protocol.Run(e, protocol.RoundRobin(r.Sys.N()), protocol.RunOptions{MaxSteps: 20000})
		if res.Outcome != protocol.Converged {
			t.Fatalf("%s: modified outcome = %v", f, res.Outcome)
		}
		// And deterministically so.
		for _, rr := range protocol.RunSeeds(e, 4, 20000) {
			if rr.Outcome != protocol.Converged || !rr.Final.BestEqual(res.Final) {
				t.Fatalf("%s: modified schedule-dependent", f)
			}
		}
	}
}

// Randomised cross-validation of the whole reduction: satisfiability (per
// DPLL) must coincide with stabilizability (per lock-in runs over all
// assignments — the formulas are small enough to enumerate).
func TestReductionMatchesSolverOnRandomFormulas(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := Random3SAT(3, 4+int(seed), seed)
		_, sat := Solve(f)
		r := reduce(t, f)
		stabilized := false
		for mask := 0; mask < 1<<3; mask++ {
			assign := []bool{false, mask&1 != 0, mask&2 != 0, mask&4 != 0}
			e, res := r.StabilizeWithAssignment(assign, 8000)
			if res.Outcome == protocol.Converged && e.Stable() {
				stabilized = true
				// Any stable solution must decode to a satisfying
				// assignment.
				got, ok := r.AssignmentFromSnapshot(res.Final)
				if !ok || !f.Eval(got) {
					t.Fatalf("seed %d: stable but decoded assignment invalid", seed)
				}
				break
			}
		}
		if stabilized != sat {
			t.Fatalf("seed %d: formula %s sat=%v but stabilized=%v", seed, f, sat, stabilized)
		}
	}
}

// pigeonhole builds PHP(3,2): three pigeons, two holes — a classic
// unsatisfiable formula. Variables p(i,h) = 2*(i-1)+h for pigeon i in
// hole h.
func pigeonhole() *Formula {
	v := func(i, h int) Literal { return Literal(2*(i-1) + h) }
	f := &Formula{NumVars: 6}
	// Every pigeon sits somewhere.
	for i := 1; i <= 3; i++ {
		f.Clauses = append(f.Clauses, Clause{v(i, 1), v(i, 2)})
	}
	// No two pigeons share a hole.
	for h := 1; h <= 2; h++ {
		for i := 1; i <= 3; i++ {
			for j := i + 1; j <= 3; j++ {
				f.Clauses = append(f.Clauses, Clause{-v(i, h), -v(j, h)})
			}
		}
	}
	return f
}

// TestReductionPigeonhole stress-tests the converse direction of Theorem
// 5.1 on a 6-variable, 9-clause unsatisfiable instance: a 70-router
// system where none of the 64 assignments stabilises the routing.
func TestReductionPigeonhole(t *testing.T) {
	if testing.Short() {
		t.Skip("64 lock-in runs on a 70-router system")
	}
	f := pigeonhole()
	if _, ok := Solve(f); ok {
		t.Fatal("setup: PHP(3,2) should be unsatisfiable")
	}
	r := reduce(t, f)
	if r.Sys.N() != 1+4*6+5*9 {
		t.Fatalf("instance size %d", r.Sys.N())
	}
	for mask := 0; mask < 1<<6; mask++ {
		assign := make([]bool, 7)
		for v := 1; v <= 6; v++ {
			assign[v] = mask&(1<<(v-1)) != 0
		}
		eng, res := r.StabilizeWithAssignment(assign, 6000)
		if res.Outcome == protocol.Converged && eng.Stable() {
			t.Fatalf("assignment %06b stabilised an unsatisfiable instance", mask)
		}
	}
}

// Reduction instance size is polynomial (linear) in the formula size.
func TestReductionSize(t *testing.T) {
	f := Random3SAT(4, 6, 1)
	r := reduce(t, f)
	wantNodes := 1 + 4*f.NumVars + 5*len(f.Clauses)
	if r.Sys.N() != wantNodes {
		t.Fatalf("nodes = %d, want %d", r.Sys.N(), wantNodes)
	}
	wantPaths := 2*f.NumVars + 3*len(f.Clauses)
	if r.Sys.NumExits() != wantPaths {
		t.Fatalf("paths = %d, want %d", r.Sys.NumExits(), wantPaths)
	}
}

func TestReduceRejectsInvalid(t *testing.T) {
	if _, err := Reduce(&Formula{NumVars: 1, Clauses: []Clause{{5}}}); err == nil {
		t.Fatal("invalid formula accepted")
	}
}

func TestAssignmentFromSnapshotRejectsMixed(t *testing.T) {
	f := mustFormula(t, 1)
	r := reduce(t, f)
	e := protocol.New(r.Sys, protocol.Classic, selection.Options{})
	// Cold start: gadget reflectors have no routes yet — not a pure state.
	var cold protocol.Snapshot
	e.SnapshotInto(&cold)
	if _, ok := r.AssignmentFromSnapshot(cold); ok {
		t.Fatal("cold-start snapshot decoded as pure state")
	}
	_ = bgp.None
}
