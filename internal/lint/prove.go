package lint

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/sat"
	"repro/internal/selection"
	"repro/internal/topology"
)

// The prove passes make lint exact, in the sense of Section 5: instead of
// pattern-matching sufficient oscillation preconditions they encode the
// existence of a stable routing as CNF and decide it with the SAT solver
// the NP-completeness reduction already ships.
//
// The encoding works over the *core* of the system: reflectors plus
// routers owning an exit path. A client without exits can never influence
// any other router — the Transfer relation only lets a client's own-exit
// routes flow upward, and such a client has none — so its stable selection
// is a deterministic function of its peers' advertisements and the full
// system has a stable routing iff the core does.
//
// Per core router u and receivable path p the choice variable x[u,p] says
// "u stably selects (and, under classic I-BGP, advertises) p". Visibility
// and the selection rules then become defined variables:
//
//	vis[u,p]     ⇔  p is u's own exit, or some peer w with Transfers(w,u,p)
//	                has x[w,p]                     (one clause per advertiser)
//	surv_k[u,p]  ⇔  surv_{k-1}[u,p] ∧ ⋀_q ¬surv_{k-1}[u,q]  over the static
//	                stage-k "killers" q of p: higher LocalPref (rule 1),
//	                shorter AS path (rule 2), same-AS lower MED (rule 3,
//	                the visibility-dependent elimination of Figure 1(a)),
//	                E-BGP over I-BGP (rule 4), lower IGP metric (rule 5)
//	x[u,p]       ⇒  surv_5[u,p], exactly one choice per router (or none,
//	                exactly when nothing is visible), and for every pair
//	                that can tie through rule 5 a learnedFrom comparison
//	                expanded over the possible advertiser sets (rule 6).
//
// A stage whose killer set is empty reuses the previous stage's variable,
// so uniform-attribute families (one LocalPref, one AS-path length) cost
// nothing for rules 1-2. Models of the formula correspond exactly to the
// stable advertisement assignments the engine's InducedConfig fixed-point
// check accepts, which is what the replay verification (and the witness
// replay test) exercises.
type proveIndex struct {
	sys      *topology.System
	speakers []bgp.NodeID     // reflectors + exit owners, ascending
	spIdx    []int            // node -> speaker index, -1 outside the core
	cand     [][]bgp.ExitPath // receivable paths per speaker, ascending ID
	candPos  [][]int          // candPos[si][pathID] = index into cand[si], -1 absent
	advs     [][][]int        // advs[si][ci]: speakers that can transfer cand[si][ci] to speaker si
	metric   [][]int64        // metric[si][ci] = IGP metric of the candidate at the speaker

	enc    *stableEncoding
	inst   *sat.Instance // the CNF set up once, for both solves
	sat    bool
	choice []bgp.PathID      // decoded stable selection per speaker (bgp.None: none)
	config map[string]string // choice replayed through the engine
	replay bool              // whether that replay is a protocol fixed point
	stats  sat.Stats
}

// stableEncoding is the CNF plus the variable maps needed to decode a
// model back into route choices.
type stableEncoding struct {
	f     *sat.Formula
	x     [][]int // choice variable per (speaker, candidate)
	xNone []int   // "selects nothing" per speaker
	surv  [][]int // final-stage survivor variable per (speaker, candidate)
}

// Witness is machine-checkable evidence attached to a prover finding.
type Witness struct {
	// Config maps every router name to its stable selection ("p3", or
	// "none"), decoded from the SAT model and completed through the
	// protocol engine for routers outside the encoding core.
	Config map[string]string `json:"config,omitempty"`
	// Alt is a second, distinct stable configuration (prove-wheel).
	Alt map[string]string `json:"alt,omitempty"`
	// Wheel is the dispute wheel connecting Config and Alt: a dependency
	// cycle of routers whose selections differ between the two stable
	// routings, each router's flip caused by the next one's.
	Wheel []WheelSpoke `json:"wheel,omitempty"`
}

// WheelSpoke is one router on the dispute wheel, with its selections in
// the two stable configurations.
type WheelSpoke struct {
	Node string `json:"node"`
	Hold string `json:"hold"` // selection in Config
	Alt  string `json:"alt"`  // selection in Alt
}

// pathLabel renders a selection as p<ID> or "none".
func pathLabel(id bgp.PathID) string {
	if id == bgp.None {
		return "none"
	}
	return fmt.Sprintf("p%d", id)
}

// proveIndexOnce builds (once per Context) the core index, the stable-
// configuration CNF, its solver set-up, the first solver outcome and that
// outcome's engine replay, shared by both prover passes.
func (ctx *Context) proveIndexOnce() *proveIndex {
	ctx.proveOnce.Do(func() {
		idx := buildProveIndex(ctx.Sys)
		idx.enc = encodeStable(idx)
		idx.inst = sat.NewInstance(idx.enc.f)
		var model []bool
		model, idx.sat = idx.inst.Solve(&idx.stats)
		if idx.sat {
			idx.choice = decodeChoice(idx, model)
			idx.config, idx.replay = realize(idx, idx.choice)
		}
		ctx.prove = idx
	})
	return ctx.prove
}

func buildProveIndex(sys *topology.System) *proveIndex {
	n := sys.N()
	idx := &proveIndex{sys: sys, spIdx: make([]int, n)}
	for u := 0; u < n; u++ {
		id := bgp.NodeID(u)
		if sys.Role(id) == topology.Reflector || len(sys.MyExits(id)) > 0 {
			idx.spIdx[u] = len(idx.speakers)
			idx.speakers = append(idx.speakers, id)
		} else {
			idx.spIdx[u] = -1
		}
	}
	exits := sys.Exits()
	idx.cand = make([][]bgp.ExitPath, len(idx.speakers))
	idx.candPos = make([][]int, len(idx.speakers))
	idx.metric = make([][]int64, len(idx.speakers))
	for si, u := range idx.speakers {
		pos := make([]int, len(exits))
		for i := range pos {
			pos[i] = -1
		}
		for _, p := range exits { // ascending PathID
			receivable := p.ExitPoint == u
			if !receivable {
				for _, w := range sys.Peers(u) {
					if sys.Transfers(w, u, p) {
						receivable = true
						break
					}
				}
			}
			if receivable {
				pos[p.ID] = len(idx.cand[si])
				idx.cand[si] = append(idx.cand[si], p)
				idx.metric[si] = append(idx.metric[si], sys.Metric(u, p))
			}
		}
		idx.candPos[si] = pos
	}
	// Advertiser lists: which core peers can transfer each candidate in.
	// Peer lists are sorted, so the encoding is deterministic.
	idx.advs = make([][][]int, len(idx.speakers))
	for si, u := range idx.speakers {
		idx.advs[si] = make([][]int, len(idx.cand[si]))
		for ci, p := range idx.cand[si] {
			if p.ExitPoint == u {
				continue // own exits are unconditionally visible
			}
			for _, w := range sys.Peers(u) {
				sj := idx.spIdx[w]
				if sj >= 0 && idx.candPos[sj][p.ID] >= 0 && sys.Transfers(w, u, p) {
					idx.advs[si][ci] = append(idx.advs[si][ci], sj)
				}
			}
		}
	}
	return idx
}

// constLF returns the learnedFrom value of p at u when it does not depend
// on which peers advertise p: own exits use the external next hop (or the
// fixed tie-break), and any path with a fixed tie-break uses it. Otherwise
// learnedFrom is the minimum BGP identifier over the active advertisers —
// a variable quantity the tie-break clauses expand over.
func constLF(u bgp.NodeID, p bgp.ExitPath) (int, bool) {
	if p.TieBreak >= 0 {
		return p.TieBreak, true
	}
	if p.ExitPoint == u {
		return p.NextHopID, true
	}
	return 0, false
}

func encodeStable(idx *proveIndex) *stableEncoding {
	sys := idx.sys
	enc := &stableEncoding{
		x:     make([][]int, len(idx.speakers)),
		xNone: make([]int, len(idx.speakers)),
		surv:  make([][]int, len(idx.speakers)),
	}
	nv := 0
	newVar := func() int { nv++; return nv }
	var cnf cnfArena
	// Clauses whose literals are gathered while other clauses are added
	// are assembled in these buffers, reused across speakers.
	var rev, alo, noneRev, cl []sat.Literal
	pos := func(v int) sat.Literal { return sat.Literal(v) }
	neg := func(v int) sat.Literal { return sat.Literal(-v) }

	// Phase 1: allocate every choice variable, so visibility clauses can
	// reference other speakers' choices.
	for si := range idx.speakers {
		enc.x[si] = make([]int, len(idx.cand[si]))
		for ci := range idx.cand[si] {
			enc.x[si][ci] = newVar()
		}
		enc.xNone[si] = newVar()
	}

	// Phase 2: per-speaker visibility, the five filter stages, and the
	// choice constraints.
	for si, u := range idx.speakers {
		cands := idx.cand[si]
		nc := len(cands)
		own := make([]bool, nc)
		for ci, p := range cands {
			own[ci] = p.ExitPoint == u
		}

		vis := make([]int, nc)
		for ci, p := range cands {
			v := newVar()
			vis[ci] = v
			if own[ci] {
				cnf.add(pos(v)) // active exits are always visible to their owner
				continue
			}
			rev = append(rev[:0], neg(v))
			for _, sj := range idx.advs[si][ci] {
				xw := enc.x[sj][idx.candPos[sj][p.ID]]
				cnf.add(pos(v), neg(xw)) // an active advertiser makes p visible
				rev = append(rev, pos(xw))
			}
			cnf.add(rev...) // visibility needs an active advertiser
		}

		// killers returns the candidates that eliminate cands[ci] at the
		// given stage, assuming both survived the stage before. Killers
		// whose earlier attributes differ are omitted: co-survival with p
		// is then already impossible, so the clause would be vacuous.
		var ks []int
		killers := func(stage, ci int) []int {
			p := cands[ci]
			ks = ks[:0]
			for cj, q := range cands {
				if cj == ci {
					continue
				}
				eq12 := q.LocalPref == p.LocalPref && q.ASPathLen == p.ASPathLen
				kill := false
				switch stage {
				case 1:
					kill = q.LocalPref > p.LocalPref
				case 2:
					kill = q.LocalPref == p.LocalPref && q.ASPathLen < p.ASPathLen
				case 3:
					kill = eq12 && q.NextAS == p.NextAS && q.MED < p.MED
				case 4:
					kill = eq12 && own[cj] && !own[ci]
				case 5:
					kill = eq12 && own[cj] == own[ci] && idx.metric[si][cj] < idx.metric[si][ci]
				}
				if kill {
					ks = append(ks, cj)
				}
			}
			return ks
		}

		cur := vis
		for stage := 1; stage <= 5; stage++ {
			next := make([]int, nc)
			for ci := range cands {
				ks := killers(stage, ci)
				if len(ks) == 0 {
					next[ci] = cur[ci] // stage is a no-op for this path
					continue
				}
				v := newVar()
				cnf.add(neg(v), pos(cur[ci]))
				rev = append(rev[:0], pos(v), neg(cur[ci]))
				for _, cj := range ks {
					cnf.add(neg(v), neg(cur[cj]))
					rev = append(rev, pos(cur[cj]))
				}
				cnf.add(rev...)
				next[ci] = v
			}
			cur = next
		}
		surv := cur
		enc.surv[si] = surv

		// A choice must survive every filter; at most one choice; at
		// least one choice or the explicit none; none exactly when
		// nothing is visible.
		for ci := range cands {
			cnf.add(neg(enc.x[si][ci]), pos(surv[ci]))
		}
		for ci := 0; ci < nc; ci++ {
			for cj := ci + 1; cj < nc; cj++ {
				cnf.add(neg(enc.x[si][ci]), neg(enc.x[si][cj]))
			}
		}
		alo = append(alo[:0], pos(enc.xNone[si]))
		noneRev = append(noneRev[:0], pos(enc.xNone[si]))
		for ci := range cands {
			alo = append(alo, pos(enc.x[si][ci]))
			cnf.add(neg(enc.xNone[si]), neg(vis[ci]))
			noneRev = append(noneRev, pos(vis[ci]))
		}
		cnf.add(alo...)
		cnf.add(noneRev...)

		// Rule-6 tie-breaks: for every ordered pair that can reach the
		// final stage together (same rule 1-5 attributes), the chosen
		// path must win the (learnedFrom, PathID) comparison. Variable
		// learnedFrom values expand over the advertiser BGP identifiers.
		coSurvivable := func(ci, cj int) bool {
			p, q := cands[ci], cands[cj]
			return p.LocalPref == q.LocalPref && p.ASPathLen == q.ASPathLen &&
				own[ci] == own[cj] && idx.metric[si][ci] == idx.metric[si][cj] &&
				(p.NextAS != q.NextAS || p.MED == q.MED)
		}
		bid := func(sj int) int { return sys.BGPID(idx.speakers[sj]) }
		for ci := range cands {
			for cj := range cands {
				if ci == cj || !coSurvivable(ci, cj) {
					continue
				}
				p, q := cands[ci], cands[cj]
				// p (chosen) beats q iff lf(p) <= lf(q) - d.
				d := 1
				if p.ID < q.ID {
					d = 0
				}
				lfP, constP := constLF(u, p)
				lfQ, constQ := constLF(u, q)
				base := [2]sat.Literal{neg(enc.x[si][ci]), neg(surv[cj])}
				switch {
				case constP && constQ:
					if lfP > lfQ-d {
						cnf.add(base[:]...)
					}
				case constP:
					// q's learnedFrom is the minimum active advertiser
					// id; forbid any active advertiser beating lfP.
					for _, sj := range idx.advs[si][cj] {
						if bid(sj) < lfP+d {
							cnf.add(base[0], base[1], neg(enc.x[sj][idx.candPos[sj][q.ID]]))
						}
					}
				case constQ:
					// p needs an active advertiser at least as good as
					// lfQ - d.
					cl = append(cl[:0], base[:]...)
					for _, sj := range idx.advs[si][ci] {
						if bid(sj) <= lfQ-d {
							cl = append(cl, pos(enc.x[sj][idx.candPos[sj][p.ID]]))
						}
					}
					cnf.add(cl...)
				default:
					// Both variable: for every active advertiser of q, p
					// must have an active advertiser beating it.
					for _, sjq := range idx.advs[si][cj] {
						cl = append(cl[:0], base[0], base[1], neg(enc.x[sjq][idx.candPos[sjq][q.ID]]))
						for _, sjp := range idx.advs[si][ci] {
							if bid(sjp) <= bid(sjq)-d {
								cl = append(cl, pos(enc.x[sjp][idx.candPos[sjp][p.ID]]))
							}
						}
						cnf.add(cl...)
					}
				}
			}
		}
	}
	enc.f = cnf.formula(nv)
	return enc
}

// cnfArena collects clauses into one literal arena: clause i ends at
// lits[ends[i]] and starts where clause i-1 ends.
type cnfArena struct {
	lits []sat.Literal
	ends []int32
}

func (a *cnfArena) add(ls ...sat.Literal) {
	// Double when full: append's growth for large slices tends to 1.25x,
	// which allocates about five times the final arena along the way.
	if len(a.lits)+len(ls) > cap(a.lits) {
		a.lits = slices.Grow(a.lits, len(a.lits)+len(ls))
	}
	if len(a.ends) == cap(a.ends) {
		a.ends = slices.Grow(a.ends, len(a.ends)+1)
	}
	a.lits = append(a.lits, ls...)
	a.ends = append(a.ends, int32(len(a.lits)))
}

// formula carves the collected clauses out of the arena.
func (a *cnfArena) formula(nv int) *sat.Formula {
	cls := make([]sat.Clause, len(a.ends))
	var b int32
	for i, e := range a.ends {
		cls[i] = a.lits[b:e:e]
		b = e
	}
	return &sat.Formula{NumVars: nv, Clauses: cls}
}

// decodeChoice reads the per-speaker selection out of a model.
func decodeChoice(idx *proveIndex, model []bool) []bgp.PathID {
	choice := make([]bgp.PathID, len(idx.speakers))
	for si := range idx.speakers {
		choice[si] = bgp.None
		for ci, p := range idx.cand[si] {
			if model[idx.enc.x[si][ci]] {
				choice[si] = p.ID
				break
			}
		}
	}
	return choice
}

// realize replays a per-speaker choice through the protocol engine: core
// routers advertise their decoded selections, every other router's
// response is induced, and the resulting full assignment is checked to be
// a true protocol fixed point. It returns the full configuration (per
// router name) and whether the fixed-point check passed.
func realize(idx *proveIndex, choice []bgp.PathID) (map[string]string, bool) {
	sys := idx.sys
	e := protocol.New(sys, protocol.Classic, selection.Options{})
	n := sys.N()
	adv := make([]bgp.PathSet, n)
	for si, u := range idx.speakers {
		adv[u].Add(choice[si])
	}
	e.InducedConfig(adv)
	full := make([]bgp.PathSet, n)
	for u := 0; u < n; u++ {
		full[u] = e.Advertised(bgp.NodeID(u))
	}
	ok := e.InducedConfig(full) && e.Stable()
	cfg := make(map[string]string, n)
	for u := 0; u < n; u++ {
		id := bgp.NodeID(u)
		sel := bgp.None
		if ids := full[u].IDs(); len(ids) > 0 {
			sel = ids[0]
		}
		cfg[sys.Name(id)] = pathLabel(sel)
	}
	return cfg, ok
}

// decodeWheel extracts the dispute wheel between two distinct stable
// configurations: every router whose selection differs must have a peer
// whose *transferred* advertisement differs (selection is a deterministic
// function of the transferred inputs), so the cause pointers over the
// differing set contain a cycle — the wheel.
func decodeWheel(idx *proveIndex, c1, c2 []bgp.PathID) []WheelSpoke {
	sys := idx.sys
	start := -1
	for si := range idx.speakers {
		if c1[si] != c2[si] {
			start = si
			break
		}
	}
	if start < 0 {
		return nil
	}
	cause := func(si int) int {
		u := idx.speakers[si]
		for _, w := range sys.Peers(u) {
			sj := idx.spIdx[w]
			if sj < 0 || c1[sj] == c2[sj] {
				continue
			}
			t1, t2 := bgp.None, bgp.None
			if c1[sj] != bgp.None && sys.Transfers(w, u, sys.Exit(c1[sj])) {
				t1 = c1[sj]
			}
			if c2[sj] != bgp.None && sys.Transfers(w, u, sys.Exit(c2[sj])) {
				t2 = c2[sj]
			}
			if t1 != t2 {
				return sj
			}
		}
		return -1
	}
	visited := make(map[int]int)
	var path []int
	for si := start; ; si = cause(si) {
		if si < 0 {
			return nil
		}
		if at, ok := visited[si]; ok {
			cycle := path[at:]
			spokes := make([]WheelSpoke, len(cycle))
			for i, sj := range cycle {
				spokes[i] = WheelSpoke{
					Node: sys.Name(idx.speakers[sj]),
					Hold: pathLabel(c1[sj]),
					Alt:  pathLabel(c2[sj]),
				}
			}
			return spokes
		}
		visited[si] = len(path)
		path = append(path, si)
	}
}

// proveStablePass decides, exactly, whether any stable routing exists.
// UNSAT is a proof of persistent oscillation (the Section 5 decision
// problem answered "no"); SAT yields a replay-verified stable
// configuration as an Info certificate.
func proveStablePass() Pass {
	p := Pass{
		Name:  "prove-stable",
		Doc:   "SAT-exact existence of a stable routing; UNSAT proves persistent oscillation",
		Ref:   "Section 5, STABLE I-BGP WITH ROUTE REFLECTION",
		Exact: true,
	}
	p.System = func(ctx *Context) []Finding {
		idx := ctx.proveIndexOnce()
		if !idx.sat {
			return []Finding{{
				Pass: p.Name, Severity: Risk, Ref: p.Ref,
				Detail: fmt.Sprintf(
					"no stable routing exists: the stable-configuration CNF (%d speakers, %d variables, %d clauses; %d decisions) "+
						"is unsatisfiable, so every activation schedule oscillates forever",
					len(idx.speakers), idx.enc.f.NumVars, len(idx.enc.f.Clauses), idx.stats.Decisions),
			}}
		}
		if !idx.replay {
			// Should be unreachable: models correspond to fixed points by
			// construction. Stay conservative rather than certify safety.
			return []Finding{{
				Pass: p.Name, Severity: Risk, Ref: p.Ref,
				Detail: "internal: SAT model failed engine replay; treating the configuration as at risk",
			}}
		}
		return []Finding{{
			Pass: p.Name, Severity: Info, Ref: p.Ref,
			Witness: &Witness{Config: idx.config},
			Detail: fmt.Sprintf(
				"a stable routing exists (%d variables, %d clauses, %d decisions); the decoded configuration replays as a protocol fixed point",
				idx.enc.f.NumVars, len(idx.enc.f.Clauses), idx.stats.Decisions),
		}}
	}
	return p
}

// proveWheelPass asks the solver for a *second* stable routing. Two
// distinct stable solutions imply a dispute wheel between them (the
// Figure 2 structure: outcomes depend on the activation schedule, and
// synchronous runs can oscillate between the solutions), which the pass
// decodes into a concrete cycle witness. A unique stable routing yields
// an Info certificate instead.
func proveWheelPass() Pass {
	p := Pass{
		Name:  "prove-wheel",
		Doc:   "SAT-exact dispute wheel: a second stable routing makes outcomes schedule-dependent",
		Ref:   "Section 3, Figure 2; Section 5",
		Exact: true,
	}
	p.System = func(ctx *Context) []Finding {
		idx := ctx.proveIndexOnce()
		if !idx.sat {
			return nil // prove-stable already proves persistent oscillation
		}
		// Block the first model's per-speaker choices and re-solve.
		block := make(sat.Clause, 0, len(idx.speakers))
		for si := range idx.speakers {
			v := idx.enc.xNone[si]
			if idx.choice[si] != bgp.None {
				v = idx.enc.x[si][idx.candPos[si][idx.choice[si]]]
			}
			block = append(block, sat.Literal(-v))
		}
		model2, sat2 := idx.inst.SolveWith(block, nil)
		if !sat2 {
			return []Finding{{
				Pass: p.Name, Severity: Info, Ref: p.Ref,
				Detail: "the stable routing is unique: no second stable solution exists, so no dispute wheel connects stable outcomes",
			}}
		}
		choice2 := decodeChoice(idx, model2)
		cfg2, ok2 := realize(idx, choice2)
		w := &Witness{Config: idx.config, Alt: cfg2, Wheel: decodeWheel(idx, idx.choice, choice2)}
		f := Finding{
			Pass: p.Name, Severity: Risk, Ref: p.Ref,
			Witness: w,
		}
		var names []string
		for _, s := range w.Wheel {
			names = append(names, s.Node)
		}
		f.Nodes = names
		switch {
		case !idx.replay || !ok2:
			f.Detail = "internal: a decoded stable routing failed engine replay; treating the configuration as at risk"
		case len(w.Wheel) > 0:
			f.Detail = fmt.Sprintf(
				"two distinct stable routings exist; dispute wheel %s: each router's selection flip is caused by the next one's, "+
					"so the outcome depends on the activation schedule (the Figure 2 phenomenon)",
				strings.Join(names, " -> "))
		default:
			f.Detail = "two distinct stable routings exist: the outcome depends on the activation schedule (the Figure 2 phenomenon)"
		}
		return []Finding{f}
	}
	return p
}
