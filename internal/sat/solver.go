package sat

import (
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
func SolveStats(f *Formula, st *Stats) ([]bool, bool) { return NewInstance(f).Solve(st) }

// Instance is a formula set up in the solver's watched form: deduplicated
// clauses in one literal arena, watch lists carved from one array, and the
// static branch order. An Instance is read-only once built; every search
// works on its own copy of the arena and the watch lists, so one Instance
// can be solved again, or solved with one more clause, without repeating
// the set-up.
type Instance struct {
	nv    int
	empty bool      // an input clause is empty: trivially unsatisfiable
	lits  []Literal // clause i (length >= 2) is lits[start[i]:start[i+1]]
	start []int32
	watch []int32   // watch lists in literal-index order, each in clause order
	woff  []int32   // literal index li's list is watch[woff[li]:woff[li+1]]
	units []Literal // unit clauses, in input order
	occ   []int32   // literal occurrence counts, by literal index
	order []int     // branch variables, most-constrained first
	phase []int8    // preferred first polarity per variable
}

// NewInstance sets f up for solving. Clauses are deduplicated and
// tautologies dropped, so the watched-literal invariant (two distinct
// watch positions) holds; the first two literals of each clause are its
// initial watches.
func NewInstance(f *Formula) *Instance {
	nl := 2*f.NumVars + 2
	in := &Instance{nv: f.NumVars, occ: make([]int32, nl)}
	total := 0
	for _, c := range f.Clauses {
		total += len(c)
	}
	in.lits = make([]Literal, 0, total)
	in.start = make([]int32, 1, len(f.Clauses)+1)
	// seen[lidx(l)] == i+1 marks l as already in input clause i, so the
	// dedupe needs no clearing between clauses.
	seen := make([]int32, nl)
	for i, c := range f.Clauses {
		base := len(in.lits)
		var ok bool
		if in.lits, ok = appendDeduped(in.lits, c, seen, int32(i+1)); !ok {
			continue // tautology
		}
		nc := in.lits[base:]
		for _, l := range nc {
			in.occ[lidx(l)]++
		}
		switch len(nc) {
		case 0:
			return &Instance{nv: f.NumVars, empty: true}
		case 1:
			in.units = append(in.units, nc[0])
			in.lits = in.lits[:base]
		default:
			in.start = append(in.start, int32(len(in.lits)))
		}
	}
	// Watch lists: count each literal's watchers, then fill in clause
	// order, which is the order appending clause by clause would give.
	in.woff = make([]int32, nl+1)
	for ci := 0; ci+1 < len(in.start); ci++ {
		c := in.lits[in.start[ci]:]
		in.woff[lidx(c[0])+1]++
		in.woff[lidx(c[1])+1]++
	}
	for li := 1; li <= nl; li++ {
		in.woff[li] += in.woff[li-1]
	}
	in.watch = make([]int32, in.woff[nl])
	fill := slices.Clone(in.woff[:nl])
	for ci := 0; ci+1 < len(in.start); ci++ {
		c := in.lits[in.start[ci]:]
		for _, li := range [2]int{lidx(c[0]), lidx(c[1])} {
			in.watch[fill[li]] = int32(ci)
			fill[li]++
		}
	}
	in.order, in.phase = branchOrder(in.occ, in.nv)
	return in
}

// appendDeduped appends c's literals to dst with duplicates dropped, first
// occurrences kept in order, and reports false (leaving dst as it was) when
// c is a tautology. seen is stamped with stamp per literal; a stamp must be
// unique to the clause.
func appendDeduped(dst []Literal, c Clause, seen []int32, stamp int32) ([]Literal, bool) {
	base := len(dst)
	for _, l := range c {
		if seen[lidx(l)] == stamp {
			continue
		}
		if seen[lidx(-l)] == stamp {
			return dst[:base], false
		}
		seen[lidx(l)] = stamp
		dst = append(dst, l)
	}
	return dst, true
}

// branchOrder is the static branch order: constrained variables by
// descending occurrence count, equal counts in index order, each first
// tried in its more frequent polarity. A counting sort over the counts
// makes it linear; both outputs are pure functions of the formula,
// keeping the solver deterministic.
func branchOrder(occ []int32, nv int) ([]int, []int8) {
	phase := make([]int8, nv+1)
	var maxCount int32
	for v := 1; v <= nv; v++ {
		maxCount = max(maxCount, occ[2*v]+occ[2*v+1])
	}
	// next[c] is, after the prefix pass, where the next variable with
	// count c goes.
	next := make([]int, maxCount+1)
	for v := 1; v <= nv; v++ {
		next[occ[2*v]+occ[2*v+1]]++
	}
	n := 0
	for c := maxCount; c >= 1; c-- {
		next[c], n = n, n+next[c]
	}
	order := make([]int, n)
	for v := 1; v <= nv; v++ {
		pos, neg := occ[2*v], occ[2*v+1]
		if pos+neg == 0 {
			continue
		}
		order[next[pos+neg]] = v
		next[pos+neg]++
		if neg > pos {
			phase[v] = -1
		} else {
			phase[v] = 1
		}
	}
	return order, phase
}

// Solve searches the instance's formula, filling st (when non-nil) with
// work counters; it returns what Solve returns on the formula.
func (in *Instance) Solve(st *Stats) ([]bool, bool) { return in.solve(in.newSolver(), st) }

// SolveWith searches the instance's formula with extra appended as its
// last clause. The search is exactly the one SolveStats makes on the
// formula plus extra built from scratch: the clause arena, the watch
// lists, the occurrence counts and with them the branch order and first
// phases are the instance's with extra patched in last, which is where a
// fresh build would put it.
func (in *Instance) SolveWith(extra Clause, st *Stats) ([]bool, bool) {
	return in.solve(in.newSolver(extra), st)
}

// solve runs the search from s (nil: an empty clause) and reports it.
func (in *Instance) solve(s *solver, st *Stats) ([]bool, bool) {
	ok := s != nil && s.search()
	if st != nil {
		*st = Stats{}
		if s != nil {
			*st = s.stats
		}
	}
	if !ok {
		return nil, false
	}
	out := make([]bool, in.nv+1)
	for v := 1; v <= in.nv; v++ {
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
	lits    []Literal // clause arena; the search permutes literals within a clause
	start   []int32   // clause ci is lits[start[ci]:start[ci+1]]; watches are its first two
	watches [][]int32 // literal index -> clauses watching it
	assign  []int8    // 0 unknown, 1 true, -1 false
	trail   []Literal // assigned-true literals, in assignment order
	qhead   int       // propagation frontier into trail
	units   []Literal // top-level unit clauses from the input
	order   []int     // branch variables, most-constrained first
	phase   []int8    // preferred first polarity per variable
	stats   Stats
}

// newSolver copies the instance's arena and watch lists into a fresh
// search state, with the extra clause, when one is given, set up as the
// last input clause. It returns nil when the formula has an empty clause.
func (in *Instance) newSolver(extra ...Clause) *solver {
	if in.empty {
		return nil
	}
	s := &solver{
		nv:     in.nv,
		start:  in.start,
		assign: make([]int8, in.nv+1),
		trail:  make([]Literal, 0, in.nv),
		units:  in.units,
		order:  in.order,
		phase:  in.phase,
	}
	var ex []Literal // the extra clause, deduplicated; nil when absent or a tautology
	if len(extra) > 0 {
		var ok bool
		ex, ok = appendDeduped(make([]Literal, 0, len(extra[0])), extra[0], make([]int32, len(in.occ)), 1)
		switch {
		case !ok:
			ex = nil
		case len(ex) == 0:
			return nil
		}
	}
	nc := len(in.start) - 1 // the extra clause's index, when it has one
	w0, w1 := -1, -1        // the literal indices extra watches
	if len(ex) > 0 {
		occ := slices.Clone(in.occ)
		for _, l := range ex {
			occ[lidx(l)]++
		}
		s.order, s.phase = branchOrder(occ, in.nv)
		if len(ex) == 1 {
			s.units = append(in.units[:len(in.units):len(in.units)], ex[0])
			ex = nil
		} else {
			w0, w1 = lidx(ex[0]), lidx(ex[1])
		}
	}
	s.lits = make([]Literal, len(in.lits), len(in.lits)+len(ex))
	copy(s.lits, in.lits)
	if len(ex) > 0 {
		s.lits = append(s.lits, ex...)
		s.start = append(in.start[:len(in.start):len(in.start)], int32(len(s.lits)))
	}
	// Carve every watch list from one array. Each is capped at its own
	// length, so an append during propagation copies the list out rather
	// than overwriting its neighbour.
	buf := make([]int32, 0, len(in.watch)+2)
	s.watches = make([][]int32, len(in.woff)-1)
	for li := range s.watches {
		o := len(buf)
		buf = append(buf, in.watch[in.woff[li]:in.woff[li+1]]...)
		if li == w0 || li == w1 {
			buf = append(buf, int32(nc))
		}
		s.watches[li] = buf[o:len(buf):len(buf)]
	}
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
			c := s.lits[s.start[ci]:s.start[ci+1]]
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
		for ci := 0; ci+1 < len(s.start); ci++ {
			c := s.lits[s.start[ci]:s.start[ci+1]]
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

// bruteForce decides satisfiability by exhaustive enumeration. Exponential;
// used to cross-check Solve in tests. Returns the satisfying assignment
// with the smallest binary encoding when one exists.
func bruteForce(f *Formula) ([]bool, bool) {
	n := f.NumVars
	if n > 24 {
		panic("sat: bruteForce limited to 24 variables")
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
