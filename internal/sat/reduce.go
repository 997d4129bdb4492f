package sat

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// Gadget cost constants. The invariants they maintain (see the package
// comment and DESIGN.md):
//
//   - inside a variable gadget, the "dotted" path to the other side's exit
//     (cost 3) beats the path to the own side's exit (cost 30), giving the
//     Figure 2 bistability;
//   - a satisfied literal's exit is one pacifier link (16) from the clause
//     reflectors, cheaper than every clause-internal route (21, 22, 25,
//     26, 29), so a pacified clause locks onto it;
//   - every other cross-gadget distance exceeds 30, so foreign routes
//     never displace a gadget's own choices (minimum foreign reach from a
//     variable reflector is 3+16+16 = 35; clause-to-unrelated-exit paths
//     run over the 500-cost backbone).
const (
	costVarFar    = 30  // RT-ct, RF-cf, RT-RF
	costVarDotted = 3   // RT-cf, RF-ct ("dotted": IGP only in spirit, but carries no extra session anyway)
	costPacifier  = 16  // ct/cf to clause reflectors of clauses using the literal
	costClauseA1  = 22  // A-a1 (exit r1, unique AS, MED 0)
	costClauseA2  = 21  // A-a2 (exit r2, shared AS, MED 1)
	costClauseAB  = 3   // A-B
	costClauseB1  = 26  // B-b1 (exit r3, shared AS, MED 0)
	costBackbone  = 500 // hub to every reflector
)

// VarGadget records the nodes and paths of one variable gadget.
type VarGadget struct {
	RT, CT bgp.NodeID // "true" cluster: reflector and client
	RF, CF bgp.NodeID // "false" cluster
	P      bgp.PathID // exit at CT; globally visible iff the variable is true
	N      bgp.PathID // exit at CF; globally visible iff the variable is false
}

// ClauseGadget records the nodes and paths of one clause gadget.
type ClauseGadget struct {
	A, A1, A2  bgp.NodeID // oscillator cluster 1: reflector and clients
	B, B1      bgp.NodeID // oscillator cluster 2
	R1, R2, R3 bgp.PathID
}

// Reduction is the I-BGP instance produced from a formula.
type Reduction struct {
	Formula *Formula
	Sys     *topology.System
	Hub     bgp.NodeID
	Vars    []VarGadget    // indexed by variable-1
	Clauses []ClauseGadget // indexed by clause
}

// Reduce builds the STABLE I-BGP WITH ROUTE REFLECTION instance SR_J for
// the formula, polynomial in its size: 4 routers and 2 exit paths per
// variable, 5 routers and 3 exit paths per clause, plus one backbone hub.
// The instance admits a stable solution if and only if the formula is
// satisfiable.
func Reduce(f *Formula) (*Reduction, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	norm := &Formula{NumVars: f.NumVars, Clauses: append([]Clause(nil), f.Clauses...)}
	norm.Normalize()

	b := topology.NewBuilder()
	red := &Reduction{Formula: norm}

	hubCluster := b.NewCluster()
	hub := b.Reflector("hub", hubCluster)
	red.Hub = hub

	tieBreak := 10000
	nextTB := func() int { tieBreak++; return tieBreak }
	asn := bgp.ASN(10)
	nextAS := func() bgp.ASN { asn++; return asn }

	// Variable gadgets (the Figure 2 bistable).
	for v := 1; v <= norm.NumVars; v++ {
		kT := b.NewCluster()
		kF := b.NewCluster()
		rt := b.Reflector(fmt.Sprintf("x%d.RT", v), kT)
		ct := b.Client(fmt.Sprintf("x%d.ct", v), kT)
		rf := b.Reflector(fmt.Sprintf("x%d.RF", v), kF)
		cf := b.Client(fmt.Sprintf("x%d.cf", v), kF)
		b.Link(rt, ct, costVarFar).Link(rf, cf, costVarFar).Link(rt, rf, costVarFar)
		b.Link(rt, cf, costVarDotted).Link(rf, ct, costVarDotted)
		b.Link(hub, rt, costBackbone)
		p := b.Exit(ct, topology.ExitSpec{NextAS: nextAS(), MED: 0, TieBreak: nextTB()})
		n := b.Exit(cf, topology.ExitSpec{NextAS: nextAS(), MED: 0, TieBreak: nextTB()})
		red.Vars = append(red.Vars, VarGadget{RT: rt, CT: ct, RF: rf, CF: cf, P: p, N: n})
	}

	// Clause gadgets (the Figure 1(a) oscillator) plus pacifier links.
	for j, c := range norm.Clauses {
		kA := b.NewCluster()
		kB := b.NewCluster()
		a := b.Reflector(fmt.Sprintf("K%d.A", j), kA)
		a1 := b.Client(fmt.Sprintf("K%d.a1", j), kA)
		a2 := b.Client(fmt.Sprintf("K%d.a2", j), kA)
		bb := b.Reflector(fmt.Sprintf("K%d.B", j), kB)
		b1 := b.Client(fmt.Sprintf("K%d.b1", j), kB)
		b.Link(a, a1, costClauseA1).Link(a, a2, costClauseA2)
		b.Link(a, bb, costClauseAB).Link(bb, b1, costClauseB1)
		b.Link(hub, a, costBackbone)
		alpha := nextAS()
		beta := nextAS()
		r1 := b.Exit(a1, topology.ExitSpec{NextAS: alpha, MED: 0, TieBreak: nextTB()})
		r2 := b.Exit(a2, topology.ExitSpec{NextAS: beta, MED: 1, TieBreak: nextTB()})
		r3 := b.Exit(b1, topology.ExitSpec{NextAS: beta, MED: 0, TieBreak: nextTB()})
		red.Clauses = append(red.Clauses, ClauseGadget{A: a, A1: a1, A2: a2, B: bb, B1: b1, R1: r1, R2: r2, R3: r3})

		for _, l := range c {
			g := red.Vars[l.Var()-1]
			exitClient := g.CT
			if !l.Positive() {
				exitClient = g.CF
			}
			b.Link(exitClient, a, costPacifier)
			b.Link(exitClient, bb, costPacifier)
		}
	}

	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	red.Sys = sys
	return red, nil
}

// LockInSchedule returns the activation-set prefix that drives a cold-start
// engine into the variable-gadget states encoding assign (index 0 unused):
// clients first, then — per variable — the reflector on the chosen side
// before the other, which locks the Figure 2 bistable the desired way.
func (r *Reduction) LockInSchedule(assign []bool) [][]bgp.NodeID {
	var sets [][]bgp.NodeID
	for _, g := range r.Vars {
		sets = append(sets, []bgp.NodeID{g.CT}, []bgp.NodeID{g.CF})
	}
	for v, g := range r.Vars {
		if assign[v+1] {
			sets = append(sets, []bgp.NodeID{g.RT}, []bgp.NodeID{g.RF})
		} else {
			sets = append(sets, []bgp.NodeID{g.RF}, []bgp.NodeID{g.RT})
		}
	}
	return sets
}

// StabilizeWithAssignment drives a fresh classic-I-BGP engine into the
// configuration encoding assign and runs it to a fixed point. It returns
// the engine's result; the run converges exactly when assign satisfies the
// formula. This is the constructive direction of Theorem 5.1, and — via
// engine.Stable() — the polynomial-time certificate check.
func (r *Reduction) StabilizeWithAssignment(assign []bool, maxSteps int) (*protocol.Engine, protocol.Result) {
	e := protocol.New(r.Sys, protocol.Classic, selection.Options{})
	prefix := r.LockInSchedule(assign)
	for _, set := range prefix {
		e.ActivateSet(set)
	}
	res := protocol.Run(e, protocol.RoundRobin(r.Sys.N()), protocol.RunOptions{MaxSteps: maxSteps})
	return e, res
}

// AssignmentFromSnapshot decodes the variable values from a stable
// configuration: variable v is true iff its gadget's reflectors selected
// the P path. ok is false when some gadget is in neither pure state (the
// snapshot is not a stable solution of the reduction).
func (r *Reduction) AssignmentFromSnapshot(snap protocol.Snapshot) (assign []bool, ok bool) {
	assign = make([]bool, len(r.Vars)+1)
	for v, g := range r.Vars {
		bt, bf := snap.Best[g.RT], snap.Best[g.RF]
		switch {
		case bt == g.P && bf == g.P:
			assign[v+1] = true
		case bt == g.N && bf == g.N:
			assign[v+1] = false
		default:
			return nil, false
		}
	}
	return assign, true
}

// pacifierVisibleAt reports whether clause j's gadget currently sees a
// satisfied literal's path (diagnostic helper for experiments).
func (r *Reduction) pacifierVisibleAt(e *protocol.Engine, j int) bool {
	cg := r.Clauses[j]
	for _, l := range r.Formula.Clauses[j] {
		g := r.Vars[l.Var()-1]
		p := g.P
		if !l.Positive() {
			p = g.N
		}
		if e.PossibleExits(cg.A).Contains(p) && e.PossibleExits(cg.B).Contains(p) {
			return true
		}
	}
	return false
}
