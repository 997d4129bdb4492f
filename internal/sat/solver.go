package sat

import (
	"cmp"
	"math/rand"
	"slices"
)

// Stats counts solver work, for the benchmark guard: a regression in unit
// propagation shows up as a Decisions blow-up long before it shows up as
// wall-clock noise.
type Stats struct {
	// Decisions is the number of branching choices made.
	Decisions int
	// Propagations is the number of assignments forced by unit propagation.
	Propagations int
	// Conflicts is the number of falsified clauses hit during search.
	Conflicts int
}

// Solve decides satisfiability with an iterative DPLL over two-watched-
// literal clause lists (unit propagation without rescanning the formula),
// after a pure-literal preprocessing pass. It returns a satisfying
// assignment (index 0 unused; variables not constrained by any clause
// default to true) when one exists. The solver is deterministic: equal
// formulas always produce the same assignment.
func Solve(f *Formula) ([]bool, bool) { return SolveStats(f, nil) }

// SolveStats is Solve, additionally filling st (when non-nil) with work
// counters.
func SolveStats(f *Formula, st *Stats) ([]bool, bool) {
	s := newSolver(f)
	if s == nil { // empty clause: trivially unsatisfiable
		return nil, false
	}
	ok := s.search()
	if st != nil {
		*st = s.stats
	}
	if !ok {
		return nil, false
	}
	out := make([]bool, f.NumVars+1)
	for v := 1; v <= f.NumVars; v++ {
		out[v] = s.assign[v] >= 0 // unknowns default true
	}
	return out, true
}

// lidx maps a literal to its watch-list index: positive literals at 2v,
// negative at 2v+1.
func lidx(l Literal) int {
	if l > 0 {
		return 2 * int(l)
	}
	return 2*int(-l) + 1
}

// decision is one branch point: the literal tried first, the trail length
// to rewind to, the branch-order position to resume from, and whether the
// complementary literal has already been tried.
type decision struct {
	lit      Literal
	trailLen int
	orderPos int
	flipped  bool
}

type solver struct {
	nv      int
	cls     [][]Literal // clauses of length >= 2; watches are positions 0 and 1
	watches [][]int32   // literal index -> clauses watching it
	assign  []int8      // 0 unknown, 1 true, -1 false
	trail   []Literal   // assigned-true literals, in assignment order
	qhead   int         // propagation frontier into trail
	units   []Literal   // top-level unit clauses from the input
	order   []int       // branch variables, most-constrained first
	phase   []int8      // preferred first polarity per variable
	stats   Stats
}

// newSolver copies f into watched form. It returns nil when f contains an
// empty clause (trivially unsatisfiable). Clauses are deduplicated and
// tautologies dropped, so the watched-literal invariant (two distinct
// watch positions) holds.
func newSolver(f *Formula) *solver {
	s := &solver{
		nv:      f.NumVars,
		watches: make([][]int32, 2*f.NumVars+2),
		assign:  make([]int8, f.NumVars+1),
		phase:   make([]int8, f.NumVars+1),
	}
	occ := make([]int32, 2*f.NumVars+2) // literal occurrence counts
	// seen[lidx(l)] == i+1 marks l as already in input clause i, so the
	// dedupe needs no clearing between clauses.
	seen := make([]int32, 2*f.NumVars+2)
	for i, c := range f.Clauses {
		stamp := int32(i + 1)
		taut := false
		nc := make([]Literal, 0, len(c))
		for _, l := range c {
			if seen[lidx(l)] == stamp {
				continue
			}
			if seen[lidx(-l)] == stamp {
				taut = true
				break
			}
			seen[lidx(l)] = stamp
			nc = append(nc, l)
		}
		if taut {
			continue
		}
		switch len(nc) {
		case 0:
			return nil
		case 1:
			s.units = append(s.units, nc[0])
			occ[lidx(nc[0])]++
		default:
			ci := int32(len(s.cls))
			s.cls = append(s.cls, nc)
			s.watches[lidx(nc[0])] = append(s.watches[lidx(nc[0])], ci)
			s.watches[lidx(nc[1])] = append(s.watches[lidx(nc[1])], ci)
			for _, l := range nc {
				occ[lidx(l)]++
			}
		}
	}
	// Branch order: most-occurring variables first (stable on index), with
	// the more frequent polarity as the first phase. Both are pure
	// functions of the formula, keeping the solver deterministic.
	for v := 1; v <= f.NumVars; v++ {
		pos, neg := occ[2*v], occ[2*v+1]
		if pos+neg == 0 {
			continue
		}
		s.order = append(s.order, v)
		if neg > pos {
			s.phase[v] = -1
		} else {
			s.phase[v] = 1
		}
	}
	counts := func(v int) int32 { return occ[2*v] + occ[2*v+1] }
	slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(counts(b), counts(a)) })
	return s
}

func (s *solver) val(l Literal) int8 {
	v := s.assign[l.Var()]
	if v == 0 {
		return 0
	}
	if (v > 0) == (l > 0) {
		return 1
	}
	return -1
}

// put records l as true and queues it for propagation. It reports false
// when l is already false.
func (s *solver) put(l Literal) bool {
	switch s.val(l) {
	case 1:
		return true
	case -1:
		return false
	}
	if l > 0 {
		s.assign[l.Var()] = 1
	} else {
		s.assign[l.Var()] = -1
	}
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation to fixpoint over the watch lists,
// reporting false on conflict.
func (s *solver) propagate() bool {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		fi := lidx(-l) // -l just became false
		ws := s.watches[fi]
		j := 0
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			c := s.cls[ci]
			if c[0] == -l {
				c[0], c[1] = c[1], c[0]
			}
			// c[1] is the false watch; c[0] is the other one.
			if s.val(c[0]) == 1 {
				ws[j] = ci
				j++
				continue
			}
			moved := false
			for k := 2; k < len(c); k++ {
				if s.val(c[k]) != -1 {
					c[1], c[k] = c[k], c[1]
					wl := lidx(c[1])
					s.watches[wl] = append(s.watches[wl], ci)
					moved = true
					break
				}
			}
			if moved {
				continue // clause left this watch list
			}
			ws[j] = ci
			j++
			if s.val(c[0]) == -1 {
				// Conflict: keep the unvisited watchers before bailing.
				j += copy(ws[j:], ws[i+1:])
				s.watches[fi] = ws[:j]
				s.stats.Conflicts++
				return false
			}
			s.put(c[0]) // unit: c[0] unknown, everything else false
			s.stats.Propagations++
		}
		s.watches[fi] = ws[:j]
	}
	return true
}

// backtrackTo unwinds the trail to length n.
func (s *solver) backtrackTo(n int) {
	for i := len(s.trail) - 1; i >= n; i-- {
		s.assign[s.trail[i].Var()] = 0
	}
	s.trail = s.trail[:n]
	s.qhead = n
}

// pureLiterals assigns, at the top level, every variable that occurs with
// a single polarity among not-yet-satisfied clauses, repeating until no
// pure literal remains. Sound for satisfiability: a pure literal can only
// help. Runs once as preprocessing, after top-level unit propagation.
func (s *solver) pureLiterals() bool {
	pol := make([]int8, s.nv+1) // 0 unseen, 1 pos-only, -1 neg-only, 2 mixed
	for {
		clear(pol)
		for _, c := range s.cls {
			sat := false
			for _, l := range c {
				if s.val(l) == 1 {
					sat = true
					break
				}
			}
			if sat {
				continue
			}
			for _, l := range c {
				if s.val(l) != 0 {
					continue
				}
				v := l.Var()
				p := int8(1)
				if l < 0 {
					p = -1
				}
				switch pol[v] {
				case 0:
					pol[v] = p
				case p:
				default:
					pol[v] = 2
				}
			}
		}
		changed := false
		for v := 1; v <= s.nv; v++ {
			if s.assign[v] != 0 || (pol[v] != 1 && pol[v] != -1) {
				continue
			}
			lit := Literal(v)
			if pol[v] < 0 {
				lit = -lit
			}
			s.put(lit)
			changed = true
		}
		if !changed {
			return true
		}
		if !s.propagate() {
			return false
		}
	}
}

func (s *solver) search() bool {
	for _, l := range s.units {
		if !s.put(l) {
			return false
		}
	}
	if !s.propagate() || !s.pureLiterals() {
		return false
	}
	var decs []decision
	orderPos := 0
	for {
		// Branch on the next unassigned variable in static order.
		for orderPos < len(s.order) && s.assign[s.order[orderPos]] != 0 {
			orderPos++
		}
		if orderPos == len(s.order) {
			return true // every constrained variable assigned, no conflict
		}
		v := s.order[orderPos]
		lit := Literal(v)
		if s.phase[v] < 0 {
			lit = -lit
		}
		decs = append(decs, decision{lit: lit, trailLen: len(s.trail), orderPos: orderPos})
		s.put(lit)
		s.stats.Decisions++
		for !s.propagate() {
			// Conflict: flip the deepest unflipped decision.
			for {
				if len(decs) == 0 {
					return false
				}
				d := &decs[len(decs)-1]
				s.backtrackTo(d.trailLen)
				orderPos = d.orderPos
				if !d.flipped {
					d.flipped = true
					s.put(-d.lit)
					break
				}
				decs = decs[:len(decs)-1]
			}
		}
	}
}

// BruteForce decides satisfiability by exhaustive enumeration. Exponential;
// used to cross-check Solve in tests. Returns the satisfying assignment
// with the smallest binary encoding when one exists.
func BruteForce(f *Formula) ([]bool, bool) {
	n := f.NumVars
	if n > 24 {
		panic("sat: BruteForce limited to 24 variables")
	}
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<(v-1)) != 0
		}
		if f.Eval(assign) {
			return assign, true
		}
	}
	return nil, false
}

// Random3SAT generates a random formula with n variables and m clauses of
// exactly three distinct variables each. Panics if n < 3.
func Random3SAT(n, m int, seed int64) *Formula {
	if n < 3 {
		panic("sat: Random3SAT needs n >= 3")
	}
	rng := rand.New(rand.NewSource(seed))
	f := &Formula{NumVars: n}
	for i := 0; i < m; i++ {
		vars := rng.Perm(n)[:3]
		var c Clause
		for _, v := range vars {
			l := Literal(v + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}
