// Package experiments reproduces every evaluation artifact of the paper —
// each figure's claimed dynamic behaviour and the complexity result — and
// reports paper-claim vs. measured outcome. cmd/experiments renders the
// reports as the EXPERIMENTS.md tables; the root bench suite wraps each
// experiment in a benchmark.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/bgp"
	"repro/internal/campaign"
	"repro/internal/confed"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/forwarding"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/sat"
	"repro/internal/selection"
	"repro/internal/speaker"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table is a small result table attached to a report.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Report is the outcome of one experiment.
type Report struct {
	ID       string
	Artifact string
	Claim    string
	Measured string
	Pass     bool
	Tables   []Table
}

// Options tunes the experiment battery.
type Options struct {
	// Exhaustive enables the expensive exhaustive-reachability proofs
	// (notably on Figure 13); off, sampling evidence is used.
	Exhaustive bool
	// Seeds is the number of random schedules/delay seeds per experiment
	// (default 8).
	Seeds int
	// SweepSizes are the cluster counts for the E11/E12/E13 sweeps
	// (default 2,4,6,8).
	SweepSizes []int
}

func (o *Options) fill() {
	if o.Seeds <= 0 {
		o.Seeds = 8
	}
	if len(o.SweepSizes) == 0 {
		o.SweepSizes = []int{2, 4, 6, 8}
	}
}

// All runs every experiment and returns the reports in order.
func All(opts Options) []Report {
	opts.fill()
	return []Report{
		E1Fig1a(opts), E2Fig1b(opts), E3Fig2(opts), E4Fig3(opts),
		E5VariableGadget(opts), E6ClauseGadget(opts), E7Reduction(opts),
		E8Walton(opts), E9Loop(opts), E10Determinism(opts),
		E11Overhead(opts), E12Flush(opts), E13LoopFree(opts), E14Fig12(opts),
		E15Adaptive(opts), E16Confederation(opts), E17DeepHierarchy(opts),
		E18SyncConvergence(opts), E19MultiPrefix(opts), E20MetricAdjustment(opts),
		E21EBGPChurn(opts), E22MEDPrevalence(opts), E23Census(opts),
	}
}

func runRR(sys *topology.System, policy protocol.Policy, opts selection.Options, maxSteps int) protocol.Result {
	e := protocol.New(sys, policy, opts)
	return protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: maxSteps})
}

func deterministicOutcome(sys *topology.System, policy protocol.Policy, seeds, maxSteps int) (allConverged, allSame bool) {
	e := protocol.New(sys, policy, selection.Options{})
	results := protocol.RunSeeds(e, seeds, maxSteps)
	allConverged, allSame = true, true
	for _, r := range results {
		if r.Outcome != protocol.Converged {
			allConverged = false
		}
		if !r.Final.BestEqual(results[0].Final) {
			allSame = false
		}
	}
	return allConverged, allSame
}

// E1Fig1a: Figure 1(a) — classic I-BGP oscillates persistently (no stable
// solution exists at all); the modified protocol converges.
func E1Fig1a(opts Options) Report {
	opts.fill()
	f := figures.Fig1a()
	classic := runRR(f.Sys, protocol.Classic, selection.Options{}, 5000)
	enum := explore.EnumerateStableClassic(protocol.New(f.Sys, protocol.Classic, selection.Options{}), 0)
	modified := runRR(f.Sys, protocol.Modified, selection.Options{}, 5000)
	conv, same := deterministicOutcome(f.Sys, protocol.Modified, opts.Seeds, 5000)

	pass := classic.Outcome == protocol.Cycled && !enum.Truncated && len(enum.Solutions) == 0 &&
		modified.Outcome == protocol.Converged && conv && same
	return Report{
		ID:       "E1",
		Artifact: "Figure 1(a)",
		Claim:    "classic I-BGP oscillates forever (no stable solution exists); modified converges",
		Measured: fmt.Sprintf("classic: %v (cycle len %d rounds, %d best-route changes in %d steps); stable solutions found by complete enumeration: %d; modified: %v, identical outcome across %d random schedules",
			classic.Outcome, classic.CycleLen, classic.BestChanges, classic.Steps, len(enum.Solutions), modified.Outcome, opts.Seeds),
		Pass: pass,
	}
}

// E2Fig1b: Figure 1(b) — rule ordering decides stability of a full mesh.
func E2Fig1b(opts Options) Report {
	f := figures.Fig1b()
	paper := runRR(f.Sys, protocol.Classic, selection.Options{Order: selection.PaperOrder}, 5000)
	rfc := runRR(f.Sys, protocol.Classic, selection.Options{Order: selection.RFCOrder}, 5000)
	enum := explore.EnumerateStableClassic(
		protocol.New(f.Sys, protocol.Classic, selection.Options{Order: selection.RFCOrder}), 0)
	pass := paper.Outcome == protocol.Converged && rfc.Outcome == protocol.Cycled &&
		!enum.Truncated && len(enum.Solutions) == 0
	return Report{
		ID:       "E2",
		Artifact: "Figure 1(b)",
		Claim:    "converges under the paper's rule order; oscillates persistently under the RFC 1771 order, even fully meshed",
		Measured: fmt.Sprintf("paper order: %v; RFC order: %v with %d stable solutions in the whole space",
			paper.Outcome, rfc.Outcome, len(enum.Solutions)),
		Pass: pass,
	}
}

// E3Fig2: Figure 2 — transient oscillation with two stable solutions.
func E3Fig2(opts Options) Report {
	opts.fill()
	f := figures.Fig2()
	sync := protocol.Run(protocol.New(f.Sys, protocol.Classic, selection.Options{}),
		protocol.AllAtOnce(f.Sys.N()), protocol.RunOptions{MaxSteps: 2000})
	enum := explore.EnumerateStableClassic(protocol.New(f.Sys, protocol.Classic, selection.Options{}), 0)
	_, classicSame := deterministicOutcome(f.Sys, protocol.Classic, opts.Seeds, 2000)
	modConv, modSame := deterministicOutcome(f.Sys, protocol.Modified, opts.Seeds, 2000)
	modSync := protocol.Run(protocol.New(f.Sys, protocol.Modified, selection.Options{}),
		protocol.AllAtOnce(f.Sys.N()), protocol.RunOptions{MaxSteps: 2000})
	pass := sync.Outcome == protocol.Cycled && len(enum.Solutions) == 2 &&
		modConv && modSame && modSync.Outcome == protocol.Converged
	return Report{
		ID:       "E3",
		Artifact: "Figure 2",
		Claim:    "classic: synchronous schedule oscillates, two stable solutions exist, outcome is schedule-dependent; modified: always the same outcome",
		Measured: fmt.Sprintf("classic synchronous: %v; stable solutions: %d; classic outcome schedule-independent: %v; modified: converges under every schedule incl. synchronous: %v, identical outcome: %v",
			sync.Outcome, len(enum.Solutions), classicSame, modConv && modSync.Outcome == protocol.Converged, modSame),
		Pass: pass,
	}
}

// E4Fig3: Figure 3 / Table 1 — message timing alone picks the outcome and
// can sustain oscillation.
func E4Fig3(opts Options) Report {
	f := figures.Fig3()
	B, C := f.Node("B"), f.Node("C")
	inject := func(s *msgsim.Sim, withR1 bool) {
		for _, n := range []string{"r2", "r3", "r4", "r5", "r6"} {
			s.InjectAt(0, f.Path(n))
		}
		if withR1 {
			s.InjectAt(0, f.Path("r1"))
			s.WithdrawAt(2000, f.Path("r1"))
		}
	}
	s1 := msgsim.New(f.Sys, protocol.Classic, selection.Options{}, msgsim.ConstantDelay(50))
	inject(s1, false)
	r1 := s1.Run(0)
	s2 := msgsim.New(f.Sys, protocol.Classic, selection.Options{}, msgsim.ConstantDelay(50))
	inject(s2, true)
	r2 := s2.Run(0)

	// Staggered-injection echo oscillation (the Table 1 dynamics). The
	// trace of the first rounds is captured as the reproduced Table 1.
	s3 := msgsim.New(f.Sys, protocol.Classic, selection.Options{}, msgsim.ConstantDelay(50))
	var traceLines []string
	render := trace.NewRouterEventRenderer(f.Sys, false)
	s3.ObserveEvents(func(ev router.Event) {
		if line := render(ev); line != "" && len(traceLines) < 18 {
			traceLines = append(traceLines, line)
		}
	})
	for _, n := range []string{"r2", "r3", "r4", "r5"} {
		s3.InjectAt(0, f.Path(n))
	}
	s3.InjectAt(5, f.Path("r6"))
	r3 := s3.Run(3000)
	table := Table{
		Title:  "Reproduced Table 1: the first update rounds of the delay-driven execution",
		Header: []string{"event"},
	}
	for _, l := range traceLines {
		table.Rows = append(table.Rows, []string{l})
	}

	m := msgsim.New(f.Sys, protocol.Modified, selection.Options{}, msgsim.ConstantDelay(50))
	inject(m, true)
	rm := m.Run(0)
	m2 := msgsim.New(f.Sys, protocol.Modified, selection.Options{}, msgsim.ConstantDelay(50))
	inject(m2, false)
	rm2 := m2.Run(0)
	modSame := true
	for u := range rm.Best {
		if rm.Best[u] != rm2.Best[u] {
			modSame = false
		}
	}

	outcome1 := r1.Quiesced && r1.Best[B] == f.Path("r3") && r1.Best[C] == f.Path("r6")
	outcome2 := r2.Quiesced && r2.Best[B] == f.Path("r4") && r2.Best[C] == f.Path("r5")
	pass := outcome1 && outcome2 && !r3.Quiesced && rm.Quiesced && rm2.Quiesced && modSame
	return Report{
		ID:       "E4",
		Artifact: "Figure 3 / Table 1",
		Claim:    "same final E-BGP input, different message timing → different stable solutions; a timing coincidence sustains oscillation; modified is timing-independent",
		Measured: fmt.Sprintf("timing A lands on {B:r3,C:r6}: %v; timing B lands on {B:r4,C:r5}: %v (flaps %d vs %d); staggered lockstep run still flapping after %d events: %v; modified identical under both timings: %v",
			outcome1, outcome2, r1.Flaps, r2.Flaps, r3.Events, !r3.Quiesced, modSame),
		Pass:   pass,
		Tables: []Table{table},
	}
}

// E5VariableGadget: the reduction's variable gadget is exactly bistable.
func E5VariableGadget(Options) Report {
	red, err := sat.Reduce(&sat.Formula{NumVars: 1})
	if err != nil {
		return Report{ID: "E5", Artifact: "Figures 7/8", Measured: err.Error()}
	}
	enum := explore.EnumerateStableClassic(protocol.New(red.Sys, protocol.Classic, selection.Options{}), 0)
	pass := !enum.Truncated && len(enum.Solutions) == 2
	return Report{
		ID:       "E5",
		Artifact: "Figures 7/8 (variable gadget)",
		Claim:    "the variable gadget has exactly two stable solutions (true / false)",
		Measured: fmt.Sprintf("complete enumeration over %d advertisement assignments found %d stable solutions", enum.Candidates, len(enum.Solutions)),
		Pass:     pass,
	}
}

// E6ClauseGadget: the clause gadget alone has no stable solution.
func E6ClauseGadget(Options) Report {
	red, err := sat.Reduce(&sat.Formula{NumVars: 0, Clauses: []sat.Clause{{}}})
	if err != nil {
		return Report{ID: "E6", Artifact: "Figure 9", Measured: err.Error()}
	}
	enum := explore.EnumerateStableClassic(protocol.New(red.Sys, protocol.Classic, selection.Options{}), 0)
	rr := runRR(red.Sys, protocol.Classic, selection.Options{}, 5000)
	pass := !enum.Truncated && len(enum.Solutions) == 0 && rr.Outcome == protocol.Cycled
	return Report{
		ID:       "E6",
		Artifact: "Figure 9 (clause gadget)",
		Claim:    "the clause gadget in isolation has no stable solution",
		Measured: fmt.Sprintf("complete enumeration: %d stable solutions; round-robin: %v", len(enum.Solutions), rr.Outcome),
		Pass:     pass,
	}
}

// E7Reduction: Theorem 5.1 — satisfiable ⇔ stabilizable, cross-checked
// against DPLL on a battery of formulas.
func E7Reduction(opts Options) Report {
	opts.fill()
	type caseResult struct {
		formula    string
		sat        bool
		stabilized bool
	}
	var cases []caseResult
	formulas := []*sat.Formula{
		{NumVars: 1, Clauses: []sat.Clause{{1}}},
		{NumVars: 1, Clauses: []sat.Clause{{1}, {-1}}},
		{NumVars: 2, Clauses: []sat.Clause{{1, 2}, {-1, 2}, {1, -2}}},
		{NumVars: 2, Clauses: []sat.Clause{{1, 2}, {-1, 2}, {1, -2}, {-1, -2}}},
		{NumVars: 3, Clauses: []sat.Clause{{1, 2, 3}, {-1, -2, 3}, {1, -2, -3}}},
	}
	for s := int64(0); s < 3; s++ {
		formulas = append(formulas, sat.Random3SAT(3, 5+int(s), s))
	}
	pass := true
	table := Table{Title: "Reduction battery", Header: []string{"formula", "DPLL sat", "stabilizable", "agree"}}
	for _, f := range formulas {
		_, isSat := sat.Solve(f)
		red, err := sat.Reduce(f)
		if err != nil {
			pass = false
			continue
		}
		stabilized := false
		n := f.NumVars
		for mask := 0; mask < 1<<n && !stabilized; mask++ {
			assign := make([]bool, n+1)
			for v := 1; v <= n; v++ {
				assign[v] = mask&(1<<(v-1)) != 0
			}
			eng, res := red.StabilizeWithAssignment(assign, 10000)
			if res.Outcome == protocol.Converged && eng.Stable() {
				stabilized = true
				if got, ok := red.AssignmentFromSnapshot(res.Final); !ok || !f.Eval(got) {
					pass = false
				}
			}
		}
		agree := stabilized == isSat
		if !agree {
			pass = false
		}
		cases = append(cases, caseResult{f.String(), isSat, stabilized})
		table.Rows = append(table.Rows, []string{f.String(),
			fmt.Sprintf("%v", isSat), fmt.Sprintf("%v", stabilized), fmt.Sprintf("%v", agree)})
	}
	agreeCount := 0
	for _, c := range cases {
		if c.sat == c.stabilized {
			agreeCount++
		}
	}
	return Report{
		ID:       "E7",
		Artifact: "Theorem 5.1 (3-SAT reduction)",
		Claim:    "the reduced instance has a stable solution iff the formula is satisfiable; stability is checkable in polynomial time",
		Measured: fmt.Sprintf("%d/%d formulas agree between DPLL and stabilizability; every stable solution decoded to a satisfying assignment", agreeCount, len(cases)),
		Pass:     pass,
		Tables:   []Table{table},
	}
}

// E8Walton: Figure 13 — the Walton et al. fix still oscillates.
func E8Walton(opts Options) Report {
	opts.fill()
	f := figures.Fig13()
	classic := runRR(f.Sys, protocol.Classic, selection.Options{}, 8000)
	walton := runRR(f.Sys, protocol.Walton, selection.Options{}, 8000)
	modified := runRR(f.Sys, protocol.Modified, selection.Options{}, 8000)
	_, modSame := deterministicOutcome(f.Sys, protocol.Modified, opts.Seeds, 8000)

	// MED-induced: equalising the MEDs removes the oscillation.
	spec := topology.ToSpec(f.Sys)
	for i := range spec.Exits {
		spec.Exits[i].MED = 0
	}
	eq, err := topology.BuildSpec(spec)
	medInduced := false
	if err == nil {
		medInduced = runRR(eq, protocol.Classic, selection.Options{}, 8000).Outcome == protocol.Converged &&
			runRR(eq, protocol.Walton, selection.Options{}, 8000).Outcome == protocol.Converged
	}

	exhaustiveNote := "schedule-sampling evidence"
	exhaustiveOK := true
	if opts.Exhaustive {
		for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton} {
			a := explore.Reachable(protocol.New(f.Sys, policy, selection.Options{}),
				explore.Options{Mode: explore.SingletonsPlusAll, MaxStates: 3000000})
			if a.Truncated || a.Stabilizable() {
				exhaustiveOK = false
			}
		}
		exhaustiveNote = "exhaustive reachable-state proof"
	}
	pass := classic.Outcome == protocol.Cycled && walton.Outcome == protocol.Cycled &&
		modified.Outcome == protocol.Converged && modSame && medInduced && exhaustiveOK
	return Report{
		ID:       "E8",
		Artifact: "Figure 13 (Walton et al. counterexample)",
		Claim:    "a MED-induced persistent oscillation survives the Walton et al. fix; the modified protocol converges",
		Measured: fmt.Sprintf("classic: %v; walton: %v; modified: %v (same outcome across schedules: %v); MED-induced (equal MEDs converge): %v; %s",
			classic.Outcome, walton.Outcome, modified.Outcome, modSame, medInduced, exhaustiveNote),
		Pass: pass,
	}
}

// E9Loop: Figure 14 — routing loops under classic and Walton; none under
// the modified protocol.
func E9Loop(Options) Report {
	f := figures.Fig14()
	loops := map[protocol.Policy]int{}
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified} {
		res := runRR(f.Sys, policy, selection.Options{}, 2000)
		if res.Outcome != protocol.Converged {
			return Report{ID: "E9", Artifact: "Figure 14", Measured: "engine did not converge", Pass: false}
		}
		loops[policy] = len(forwarding.NewPlane(f.Sys, res.Final).Loops())
	}
	pass := loops[protocol.Classic] == 2 && loops[protocol.Walton] == 2 && loops[protocol.Modified] == 0
	return Report{
		ID:       "E9",
		Artifact: "Figure 14 (Dube-Scudder loop)",
		Claim:    "classic and Walton leave both clients in a forwarding loop; the modified protocol is loop-free",
		Measured: fmt.Sprintf("looping sources — classic: %d, walton: %d, modified: %d",
			loops[protocol.Classic], loops[protocol.Walton], loops[protocol.Modified]),
		Pass: pass,
	}
}

// E10Determinism: Section 7 — the modified protocol reaches the identical
// configuration under every schedule and after crash/restart; classic on
// Figure 2 reaches different outcomes.
func E10Determinism(opts Options) Report {
	opts.fill()
	f := figures.Fig2()
	// Classic: count distinct converged outcomes across fixed orders.
	distinct := map[string]bool{}
	RR1, RR2, c1, c2 := f.Node("RR1"), f.Node("RR2"), f.Node("c1"), f.Node("c2")
	for _, order := range [][]bgp.NodeID{{RR1, RR2, c1, c2}, {RR2, RR1, c1, c2}} {
		sets := make([][]bgp.NodeID, len(order))
		for i, u := range order {
			sets[i] = []bgp.NodeID{u}
		}
		e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
		res := protocol.Run(e, protocol.Fixed(sets...), protocol.RunOptions{MaxSteps: 2000})
		if res.Outcome == protocol.Converged {
			distinct[res.Final.String()] = true
		}
	}
	// Modified: schedules + crash/restart.
	e := protocol.New(f.Sys, protocol.Modified, selection.Options{})
	base := protocol.Run(e, protocol.RoundRobin(f.Sys.N()), protocol.RunOptions{MaxSteps: 2000})
	crashSame := true
	for u := 0; u < f.Sys.N(); u++ {
		e.ResetNode(bgp.NodeID(u))
		res := protocol.Run(e, protocol.PermutationRounds(f.Sys.N(), int64(u)+77), protocol.RunOptions{MaxSteps: 2000})
		if res.Outcome != protocol.Converged || !res.Final.BestEqual(base.Final) {
			crashSame = false
		}
	}
	conv, same := deterministicOutcome(f.Sys, protocol.Modified, opts.Seeds, 2000)
	pass := len(distinct) == 2 && conv && same && crashSame && base.Outcome == protocol.Converged
	return Report{
		ID:       "E10",
		Artifact: "Section 7 convergence theorem",
		Claim:    "modified I-BGP reaches one unique configuration under every fair schedule, and again after any single router crash/restart; classic is schedule-dependent",
		Measured: fmt.Sprintf("classic on Fig2: %d distinct converged outcomes; modified: converged under %d random schedules: %v, identical: %v, identical after each of %d crash/restarts: %v",
			len(distinct), opts.Seeds, conv, same, f.Sys.N(), crashSame),
		Pass: pass,
	}
}

// E11Overhead: the scalability trade-off of Section 1/10 — advertised-set
// sizes and convergence cost per policy across random systems.
func E11Overhead(opts Options) Report {
	opts.fill()
	table := Table{
		Title:  "Advertised routes and convergence cost (averages over seeds)",
		Header: []string{"clusters", "routers", "policy", "avg advertised/router", "max advertised", "steps", "messages", "converged"},
	}
	pass := true
	for _, c := range opts.SweepSizes {
		for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified} {
			var sumAdv, sumMax, sumSteps, sumMsgs float64
			var n, convCount, routers int
			for seed := int64(0); seed < int64(opts.Seeds); seed++ {
				sys := workload.MustGenerate(workload.Default(c), seed)
				routers = sys.N()
				e := protocol.New(sys, policy, selection.Options{})
				res := protocol.Run(e, protocol.PermutationRounds(sys.N(), seed+1), protocol.RunOptions{MaxSteps: 6000})
				if res.Outcome == protocol.Converged {
					convCount++
				}
				tot, max := 0, 0
				for u := 0; u < sys.N(); u++ {
					l := res.Final.Advertised[u].Len()
					tot += l
					if l > max {
						max = l
					}
				}
				sumAdv += float64(tot) / float64(sys.N())
				sumMax += float64(max)
				sumSteps += float64(res.Steps)
				sumMsgs += float64(res.Messages)
				n++
			}
			if policy == protocol.Modified && convCount != n {
				pass = false // Theorem 7 must hold on every random system
			}
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%d", c), fmt.Sprintf("%d", routers), policy.String(),
				fmt.Sprintf("%.2f", sumAdv/float64(n)), fmt.Sprintf("%.1f", sumMax/float64(n)),
				fmt.Sprintf("%.0f", sumSteps/float64(n)), fmt.Sprintf("%.0f", sumMsgs/float64(n)),
				fmt.Sprintf("%d/%d", convCount, n),
			})
		}
	}
	return Report{
		ID:       "E11",
		Artifact: "Sections 1/10 scalability discussion",
		Claim:    "the modified protocol advertises more routes per router (the price of provable convergence); it converges on every input",
		Measured: "see table: classic advertises ≤1 route, Walton ≤ one per neighbouring AS, modified the MED-survivor set; modified converged on every random system",
		Pass:     pass,
		Tables:   []Table{table},
	}
}

// E12Flush: Lemma 7.2 — withdrawn routes are flushed within a small number
// of fair rounds (bounded by the level structure, ≤ 3 + 1 rounds).
func E12Flush(opts Options) Report {
	opts.fill()
	table := Table{Title: "Rounds to flush a withdrawn route", Header: []string{"clusters", "avg rounds", "max rounds", "bound 4"}}
	pass := true
	for _, c := range opts.SweepSizes {
		var sum float64
		maxRounds := 0
		n := 0
		for seed := int64(0); seed < int64(opts.Seeds); seed++ {
			sys := workload.MustGenerate(workload.Default(c), seed)
			if sys.NumExits() == 0 {
				continue
			}
			e := protocol.New(sys, protocol.Modified, selection.Options{})
			protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 6000})
			e.Withdraw(0)
			rounds := 0
			for !e.Valid() && rounds < 10 {
				for u := 0; u < sys.N(); u++ {
					e.Activate(bgp.NodeID(u))
				}
				rounds++
			}
			if !e.Valid() {
				pass = false
			}
			if rounds > maxRounds {
				maxRounds = rounds
			}
			sum += float64(rounds)
			n++
		}
		if maxRounds > 4 {
			pass = false
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", c), fmt.Sprintf("%.2f", sum/float64(n)),
			fmt.Sprintf("%d", maxRounds), fmt.Sprintf("%v", maxRounds <= 4)})
	}
	return Report{
		ID:       "E12",
		Artifact: "Lemma 7.2 (flushing)",
		Claim:    "after an E-BGP withdrawal every stale copy disappears within a level-bounded number of fair rounds",
		Measured: "see table: all withdrawn routes flushed, within ≤ 4 round-robin rounds",
		Pass:     pass,
		Tables:   []Table{table},
	}
}

// E13LoopFree: Lemmas 7.6/7.7 — the modified protocol's outcomes are
// forwarding-loop-free on random systems. The run also quantifies a
// subtlety this reproduction surfaced: Lemma 7.6's literal statement can
// fail on *exact metric ties* when learnedFrom is the announcing peer's
// identifier (it differs per router), though no loop ever forms; with
// route-intrinsic tie-break values — the Section 5 assumption — the strict
// statement holds everywhere.
func E13LoopFree(opts Options) Report {
	opts.fill()
	systems, loops, strict, ties := 0, 0, 0, 0
	strictTB, loopsTB := 0, 0
	notConverged := 0
	for _, c := range opts.SweepSizes {
		for seed := int64(0); seed < int64(opts.Seeds); seed++ {
			sys := workload.MustGenerate(workload.Default(c), seed)
			res := runRR(sys, protocol.Modified, selection.Options{}, 6000)
			if res.Outcome != protocol.Converged {
				notConverged++
				continue
			}
			plane := forwarding.NewPlane(sys, res.Final)
			systems++
			loops += len(plane.Loops())
			rep := plane.CheckLemma76Detailed()
			strict += len(rep.Strict)
			ties += len(rep.MetricTies)

			// Ablation: the same system with unique per-route tie-breaks.
			tb, err := withTieBreaks(sys)
			if err != nil {
				strictTB++
				continue
			}
			resTB := runRR(tb, protocol.Modified, selection.Options{}, 6000)
			if resTB.Outcome != protocol.Converged {
				strictTB++
				continue
			}
			planeTB := forwarding.NewPlane(tb, resTB.Final)
			loopsTB += len(planeTB.Loops())
			strictTB += len(planeTB.CheckLemma76())
		}
	}
	pass := loops == 0 && strict == 0 && loopsTB == 0 && strictTB == 0 &&
		systems > 0 && notConverged == 0
	return Report{
		ID:       "E13",
		Artifact: "Lemmas 7.6/7.7 (loop freedom)",
		Claim:    "under the modified protocol no packet ever loops inside the AS",
		Measured: fmt.Sprintf("%d random systems: %d forwarding loops, %d strict Lemma 7.6 violations, %d equal-metric tie deflections (loop-free; see DESIGN.md); with route-intrinsic tie-breaks: %d loops, %d violations of any kind",
			systems, loops, strict, ties, loopsTB, strictTB),
		Pass: pass,
	}
}

// withTieBreaks rebuilds a system giving every exit path a unique
// route-intrinsic tie-break value (the Section 5 assumption).
func withTieBreaks(sys *topology.System) (*topology.System, error) {
	spec := topology.ToSpec(sys)
	for i := range spec.Exits {
		spec.Exits[i].TieBreak = 10000 + i
	}
	return topology.BuildSpec(spec)
}

// E14Fig12: Figure 12 — believed route vs real route.
func E14Fig12(Options) Report {
	f := figures.Fig12()
	res := runRR(f.Sys, protocol.Classic, selection.Options{}, 2000)
	plane := forwarding.NewPlane(f.Sys, res.Final)
	tr := plane.Forward(f.Node("u"))
	pass := res.Outcome == protocol.Converged &&
		res.Final.Best[f.Node("u")] == f.Path("px") &&
		tr.ExitPath == f.Path("pw") && !tr.Looped &&
		len(plane.CheckLemma76()) == 0
	return Report{
		ID:       "E14",
		Artifact: "Figure 12",
		Claim:    "a packet's real route may exit at an intermediate router's E-BGP exit rather than the source's chosen exit — without looping",
		Measured: fmt.Sprintf("u selects px but its packets exit via %s; trace %s", pathName(tr.ExitPath), tr),
		Pass:     pass,
	}
}

// E15Adaptive implements and evaluates the future-work proposal of
// Section 10: "treat the propagation of extra routes as a feature that is
// only triggered when route oscillations are detected". Routers run
// classic I-BGP and switch to MED-survivor advertisement after observing
// their own best route flap protocol.AdaptiveThreshold times.
func E15Adaptive(opts Options) Report {
	opts.fill()
	totalAdv := func(snap protocol.Snapshot) int {
		t := 0
		for u := range snap.Advertised {
			t += snap.Advertised[u].Len()
		}
		return t
	}

	// Oscillating figures: adaptive must settle them.
	type figCase struct {
		name string
		sys  *topology.System
	}
	figs := []figCase{
		{"Fig1a", figures.Fig1a().Sys},
		{"Fig2-sync", figures.Fig2().Sys},
		{"Fig13", figures.Fig13().Sys},
	}
	pass := true
	table := Table{
		Title:  "Adaptive (triggered) advertisement",
		Header: []string{"system", "adaptive outcome", "upgraded routers", "routes advertised (adaptive)", "routes advertised (modified)"},
	}
	for _, fc := range figs {
		e := protocol.New(fc.sys, protocol.Adaptive, selection.Options{})
		var res protocol.Result
		if fc.name == "Fig2-sync" {
			res = protocol.Run(e, protocol.AllAtOnce(fc.sys.N()), protocol.RunOptions{MaxSteps: 8000})
		} else {
			res = protocol.Run(e, protocol.RoundRobin(fc.sys.N()), protocol.RunOptions{MaxSteps: 8000})
		}
		upgraded := 0
		for u := 0; u < fc.sys.N(); u++ {
			if e.Upgraded(bgp.NodeID(u)) {
				upgraded++
			}
		}
		mres := runRR(fc.sys, protocol.Modified, selection.Options{}, 8000)
		if res.Outcome != protocol.Converged || upgraded == 0 {
			pass = false
		}
		if totalAdv(res.Final) > totalAdv(mres.Final) {
			pass = false // adaptive must not advertise more than always-on
		}
		table.Rows = append(table.Rows, []string{
			fc.name, res.Outcome.String(), fmt.Sprintf("%d/%d", upgraded, fc.sys.N()),
			fmt.Sprintf("%d", totalAdv(res.Final)), fmt.Sprintf("%d", totalAdv(mres.Final)),
		})
	}

	// Quiet systems: adaptive must stay classic (zero overhead).
	quietOK := true
	for seed := int64(0); seed < int64(opts.Seeds); seed++ {
		sys := workload.MustGenerate(workload.Default(3), seed)
		if runRR(sys, protocol.Classic, selection.Options{}, 6000).Outcome != protocol.Converged {
			continue // skip naturally oscillating samples here
		}
		e := protocol.New(sys, protocol.Adaptive, selection.Options{})
		res := protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 6000})
		if res.Outcome != protocol.Converged {
			quietOK = false
		}
		for u := 0; u < sys.N(); u++ {
			if e.Upgraded(bgp.NodeID(u)) {
				quietOK = false
			}
		}
	}
	if !quietOK {
		pass = false
	}

	// Operational check: adaptive quiesces Fig1a in the message simulator.
	s := msgsim.New(figures.Fig1a().Sys, protocol.Adaptive, selection.Options{}, msgsim.ConstantDelay(5))
	s.InjectAll()
	sres := s.Run(50000)
	if !sres.Quiesced {
		pass = false
	}

	return Report{
		ID:       "E15",
		Artifact: "Section 10 future work (triggered extra routes)",
		Claim:    "advertising the survivor set only after detecting oscillation settles the oscillating configurations while keeping classic behaviour (and message sizes) on quiet ones",
		Measured: fmt.Sprintf("all oscillating figures converged under adaptive with only the flapping routers upgraded (see table); quiet systems converged with zero upgrades: %v; message-level Fig1a quiesced: %v (flaps %d)",
			quietOK, sres.Quiesced, sres.Flaps),
		Pass:   pass,
		Tables: []Table{table},
	}
}

// E16Confederation: the field notice reported the oscillation for
// confederations as well; the paper's positive results cover route
// reflection only. The confed substrate reproduces the oscillation and
// shows (as an extension) that the survivor-advertisement idea settles
// confederations too.
func E16Confederation(opts Options) Report {
	opts.fill()
	build := func(medA2 int) (*confed.System, error) {
		b := confed.NewBuilder()
		X := b.NewSubAS()
		Y := b.NewSubAS()
		A1 := b.Router("A1", X)
		a1 := b.Router("a1", X)
		a2 := b.Router("a2", X)
		B1 := b.Router("B1", Y)
		b1 := b.Router("b1", Y)
		b.Link(A1, a1, 5).Link(A1, a2, 4).Link(a1, a2, 8).Link(A1, B1, 1).Link(B1, b1, 10)
		b.ConfedSession(A1, B1)
		b.Exit(a1, 0, 1, 2, 0, 0)
		b.Exit(a2, 0, 1, 1, medA2, 0)
		b.Exit(b1, 0, 1, 1, 0, 0)
		return b.Build()
	}
	sys, err := build(1)
	if err != nil {
		return Report{ID: "E16", Artifact: "Confederations", Measured: err.Error()}
	}
	classic := confed.Run(confed.New(sys, confed.Classic, selection.Options{}),
		protocol.RoundRobin(sys.N()), 5000)
	surv := confed.Run(confed.New(sys, confed.Survivors, selection.Options{}),
		protocol.RoundRobin(sys.N()), 5000)
	same := true
	for seed := int64(1); seed <= int64(opts.Seeds); seed++ {
		r := confed.Run(confed.New(sys, confed.Survivors, selection.Options{}),
			protocol.PermutationRounds(sys.N(), seed), 5000)
		if r.Outcome != protocol.Converged {
			same = false
			continue
		}
		for u := range r.Best {
			if r.Best[u] != surv.Best[u] {
				same = false
			}
		}
	}
	eq, err := build(0) // equal MEDs
	medInduced := false
	if err == nil {
		medInduced = confed.Run(confed.New(eq, confed.Classic, selection.Options{}),
			protocol.RoundRobin(eq.N()), 5000).Outcome == protocol.Converged
	}
	pass := classic.Outcome == protocol.Cycled && surv.Outcome == protocol.Converged &&
		same && medInduced
	return Report{
		ID:       "E16",
		Artifact: "Confederations (Section 1 / field notice)",
		Claim:    "the Figure 1(a) MED oscillation reproduces in a confederation; advertising the MED survivors settles it there too (extension)",
		Measured: fmt.Sprintf("classic confed-BGP: %v; survivor advertisement: %v, schedule-independent: %v; MED-induced (equal MEDs converge): %v",
			classic.Outcome, surv.Outcome, same, medInduced),
		Pass: pass,
	}
}

// E17DeepHierarchy: Section 2 notes clusters may nest arbitrarily deep;
// the paper analyses two levels. The generalized Transfer relation runs
// the modified protocol on a three-level hierarchy: unique outcome under
// every schedule, full survivor propagation, level-bounded flushing.
func E17DeepHierarchy(opts Options) Report {
	opts.fill()
	b := topology.NewBuilder()
	k0 := b.NewCluster()
	k1 := b.SubCluster(k0)
	k2 := b.SubCluster(k1)
	k3 := b.NewCluster()
	k4 := b.SubCluster(k3)
	T0 := b.Reflector("T0", k0)
	M0 := b.Reflector("M0", k1)
	L0 := b.Reflector("L0", k2)
	lc0 := b.Client("lc0", k2)
	T1 := b.Reflector("T1", k3)
	M1 := b.Reflector("M1", k4)
	mc1 := b.Client("mc1", k4)
	b.Link(T0, M0, 1).Link(M0, L0, 1).Link(L0, lc0, 2)
	b.Link(T0, T1, 1).Link(T1, M1, 1).Link(M1, mc1, 2)
	pa := b.Exit(lc0, topology.ExitSpec{NextAS: 1, MED: 0})
	pb := b.Exit(mc1, topology.ExitSpec{NextAS: 1, MED: 1})
	sys, err := b.Build()
	if err != nil {
		return Report{ID: "E17", Artifact: "Deep hierarchy", Measured: err.Error()}
	}
	e := protocol.New(sys, protocol.Modified, selection.Options{})
	base := protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 4000})
	conv, sameOut := true, true
	for _, r := range protocol.RunSeeds(e, opts.Seeds, 4000) {
		if r.Outcome != protocol.Converged {
			conv = false
		}
		if !r.Final.Equal(base.Final) {
			sameOut = false
		}
	}
	// pa (MED 0) kills pb; pa must reach the other branch's deep client.
	e.RestoreSnapshot(base.Final)
	propagated := e.PossibleExits(mc1).Contains(pa)
	// Flush across five announcement hops.
	e.Withdraw(pa)
	rounds := 0
	for !e.Valid() && rounds < 10 {
		for u := 0; u < sys.N(); u++ {
			e.Activate(bgp.NodeID(u))
		}
		rounds++
	}
	flushed := e.Valid()
	_ = pb
	pass := base.Outcome == protocol.Converged && conv && sameOut && propagated && flushed && rounds <= 6
	return Report{
		ID:       "E17",
		Artifact: "Multi-level hierarchy (Section 2 remark)",
		Claim:    "the modified protocol's guarantees carry to deeper reflection hierarchies: unique outcome, full survivor propagation, bounded flushing",
		Measured: fmt.Sprintf("3-level hierarchy: converged %v, schedule-independent %v, survivor reached the far branch: %v, withdrawal flushed in %d rounds",
			base.Outcome == protocol.Converged && conv, sameOut, propagated, rounds),
		Pass: pass,
	}
}

// deepChain builds a reflection hierarchy with two branches of the given
// depth (depth 1 = plain two-level clusters), one exit path at the bottom
// of each branch, for the synchronous convergence-time sweep.
func deepChain(depth int) (*topology.System, error) {
	b := topology.NewBuilder()
	build := func(name string) (top, leaf bgp.NodeID) {
		k := b.NewCluster()
		top = b.Reflector(name+"0", k)
		prev := top
		for d := 1; d < depth; d++ {
			k = b.SubCluster(k)
			r := b.Reflector(fmt.Sprintf("%s%d", name, d), k)
			b.Link(prev, r, 1)
			prev = r
		}
		leaf = b.Client(name+"leaf", k)
		b.Link(prev, leaf, 1)
		return top, leaf
	}
	topA, leafA := build("a")
	topB, leafB := build("b")
	b.Link(topA, topB, 1)
	b.Exit(leafA, topology.ExitSpec{NextAS: 1, MED: 0})
	b.Exit(leafB, topology.ExitSpec{NextAS: 2, MED: 0})
	return b.Build()
}

// E18SyncConvergence: the synchronous-model convergence-time estimate the
// paper defers as future work (Section 7, Discussion). Under the
// synchronous schedule (every router activates each round), information
// advances one announcement hop per round, so the modified protocol must
// converge within a small multiple of the hierarchy's announcement
// diameter (2·depth + 1 hops for two branches of the given depth).
func E18SyncConvergence(opts Options) Report {
	opts.fill()
	table := Table{
		Title:  "Synchronous rounds to convergence (modified protocol)",
		Header: []string{"system", "routers", "announcement diameter", "rounds", "bound (diam+3)"},
	}
	pass := true
	// Depth sweep on hierarchies.
	for depth := 1; depth <= 4; depth++ {
		sys, err := deepChain(depth)
		if err != nil {
			return Report{ID: "E18", Artifact: "Synchronous model", Measured: err.Error()}
		}
		e := protocol.New(sys, protocol.Modified, selection.Options{})
		res := protocol.Run(e, protocol.AllAtOnce(sys.N()), protocol.RunOptions{MaxSteps: 500})
		diam := 2*depth + 1
		ok := res.Outcome == protocol.Converged && res.Steps <= diam+3
		if !ok {
			pass = false
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("hierarchy depth %d", depth), fmt.Sprintf("%d", sys.N()),
			fmt.Sprintf("%d", diam), fmt.Sprintf("%d", res.Steps), fmt.Sprintf("%v", ok),
		})
	}
	// Size sweep on flat two-level systems: rounds must stay O(diameter),
	// not grow with router count.
	for _, c := range opts.SweepSizes {
		maxRounds := 0
		for seed := int64(0); seed < int64(opts.Seeds); seed++ {
			sys := workload.MustGenerate(workload.Default(c), seed)
			e := protocol.New(sys, protocol.Modified, selection.Options{})
			res := protocol.Run(e, protocol.AllAtOnce(sys.N()), protocol.RunOptions{MaxSteps: 500})
			if res.Outcome != protocol.Converged {
				pass = false
				continue
			}
			if res.Steps > maxRounds {
				maxRounds = res.Steps
			}
		}
		// Two-level announcement diameter is 5 (client, RR, mesh, RR,
		// client); attribute re-evaluation adds at most a couple rounds.
		if maxRounds > 8 {
			pass = false
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("flat, %d clusters", c), "-", "5",
			fmt.Sprintf("%d (max over %d seeds)", maxRounds, opts.Seeds),
			fmt.Sprintf("%v", maxRounds <= 8),
		})
	}
	return Report{
		ID:       "E18",
		Artifact: "Section 7 discussion (synchronous convergence time)",
		Claim:    "under a synchronous model the modified protocol converges in O(announcement diameter) rounds, independent of router count",
		Measured: "see table: rounds track the hierarchy diameter, not the system size",
		Pass:     pass,
		Tables:   []Table{table},
	}
}

// E19MultiPrefix: the complete Section 10 deployment picture, on real TCP
// speakers carrying two destination prefixes over one session mesh: the
// oscillation-prone prefix triggers survivor advertisement only at the
// routers that observe flapping, the quiet prefix runs classic I-BGP
// untouched, and the network quiesces.
func E19MultiPrefix(opts Options) Report {
	opts.fill()
	mk := func(addExits func(b *topology.Builder, n map[string]bgp.NodeID)) (*topology.System, map[string]bgp.NodeID, error) {
		b := topology.NewBuilder()
		cA := b.NewCluster()
		cB := b.NewCluster()
		n := map[string]bgp.NodeID{}
		n["A"] = b.Reflector("A", cA)
		n["a1"] = b.Client("a1", cA)
		n["a2"] = b.Client("a2", cA)
		n["B"] = b.Reflector("B", cB)
		n["b1"] = b.Client("b1", cB)
		b.Link(n["A"], n["a1"], 5).Link(n["A"], n["a2"], 4)
		b.Link(n["A"], n["B"], 1).Link(n["B"], n["b1"], 10)
		addExits(b, n)
		sys, err := b.Build()
		return sys, n, err
	}
	hot, _, err := mk(func(b *topology.Builder, n map[string]bgp.NodeID) {
		b.Exit(n["a1"], topology.ExitSpec{NextAS: 2, MED: 0})
		b.Exit(n["a2"], topology.ExitSpec{NextAS: 1, MED: 1})
		b.Exit(n["b1"], topology.ExitSpec{NextAS: 1, MED: 0})
	})
	if err != nil {
		return Report{ID: "E19", Artifact: "Multi-prefix", Measured: err.Error()}
	}
	quiet, _, err := mk(func(b *topology.Builder, n map[string]bgp.NodeID) {
		b.Exit(n["b1"], topology.ExitSpec{NextAS: 3, MED: 0})
	})
	if err != nil {
		return Report{ID: "E19", Artifact: "Multi-prefix", Measured: err.Error()}
	}
	net, err := speaker.NewMulti(map[uint32]*topology.System{1: hot, 2: quiet},
		protocol.Adaptive, selection.Options{})
	if err != nil {
		return Report{ID: "E19", Artifact: "Multi-prefix", Measured: err.Error()}
	}
	if err := net.Start(); err != nil {
		return Report{ID: "E19", Artifact: "Multi-prefix", Measured: err.Error()}
	}
	defer net.Stop()
	net.InjectAll()
	quiesced := net.WaitQuiesce(30*time.Second, 150*time.Millisecond)
	upgradedHot, upgradedQuiet := 0, 0
	for u := 0; u < hot.N(); u++ {
		if net.Speaker(bgp.NodeID(u)).Upgraded(1) {
			upgradedHot++
		}
		if net.Speaker(bgp.NodeID(u)).Upgraded(2) {
			upgradedQuiet++
		}
	}
	// Which fixed point the partial upgrade freezes on depends on message
	// timing (only the full modified protocol has a unique outcome —
	// Theorem 7); the Section 10 claim is quiescence with localized
	// upgrades, plus every router holding some route for the hot prefix.
	hotRouted := true
	for u := 0; u < hot.N(); u++ {
		if net.BestFor(1, bgp.NodeID(u)) == bgp.None {
			hotRouted = false
		}
	}
	pass := quiesced && upgradedHot > 0 && upgradedQuiet == 0 && hotRouted
	return Report{
		ID:       "E19",
		Artifact: "Section 10 deployment (per-prefix trigger, TCP)",
		Claim:    "on shared TCP sessions carrying two prefixes, only the oscillating prefix's flapping routers switch to survivor advertisement; the quiet prefix stays classic and everything quiesces",
		Measured: fmt.Sprintf("quiesced: %v; upgraded routers — oscillating prefix: %d/%d, quiet prefix: %d/%d; every router routes the oscillating prefix: %v",
			quiesced, upgradedHot, hot.N(), upgradedQuiet, quiet.N(), hotRouted),
		Pass: pass,
	}
}

// E20MetricAdjustment: the remaining Section 1 mitigation — "it is also
// possible to adjust link metrics in a way that eliminates some of these
// oscillations". The experiment searches for the smallest single-link IGP
// cost change that stabilises an oscillating configuration under classic
// I-BGP, demonstrating both that the mitigation works and why it is
// fragile (it re-routes traffic as a side effect, and must be re-derived
// for every new oscillation).
func E20MetricAdjustment(opts Options) Report {
	opts.fill()
	type hit struct {
		figure string
		a, b   string
		old    int64
		new    int64
	}
	var found []hit
	pass := true
	for _, tc := range []struct {
		name string
		fig  *figures.Fig
	}{
		{"Fig1a", figures.Fig1a()},
		{"Fig13", figures.Fig13()},
	} {
		spec := topology.ToSpec(tc.fig.Sys)
		if runRR(tc.fig.Sys, protocol.Classic, selection.Options{}, 5000).Outcome != protocol.Cycled {
			pass = false
			continue
		}
		best := hit{}
		bestDelta := int64(1 << 60)
		for li := range spec.Links {
			orig := spec.Links[li].Cost
			for _, delta := range []int64{-8, -4, -2, -1, 1, 2, 4, 8} {
				if orig+delta < 1 {
					continue
				}
				spec.Links[li].Cost = orig + delta
				sys, err := topology.BuildSpec(spec)
				if err == nil &&
					runRR(sys, protocol.Classic, selection.Options{}, 5000).Outcome == protocol.Converged {
					abs := delta
					if abs < 0 {
						abs = -abs
					}
					if abs < bestDelta {
						bestDelta = abs
						best = hit{figure: tc.name, a: spec.Links[li].A, b: spec.Links[li].B,
							old: orig, new: orig + delta}
					}
				}
			}
			spec.Links[li].Cost = orig
		}
		if best.figure == "" {
			pass = false
			continue
		}
		found = append(found, best)
	}
	table := Table{Title: "Smallest stabilising single-link cost change",
		Header: []string{"figure", "link", "old cost", "new cost"}}
	desc := ""
	for i, h := range found {
		if i > 0 {
			desc += "; "
		}
		desc += fmt.Sprintf("%s: %s-%s %d->%d", h.figure, h.a, h.b, h.old, h.new)
		table.Rows = append(table.Rows, []string{h.figure, h.a + "-" + h.b,
			fmt.Sprintf("%d", h.old), fmt.Sprintf("%d", h.new)})
	}
	return Report{
		ID:       "E20",
		Artifact: "Section 1 mitigation (adjust link metrics)",
		Claim:    "a small IGP cost change can remove a MED-induced oscillation — a per-incident manual fix, unlike the protocol modification",
		Measured: "stabilising changes found: " + desc,
		Pass:     pass,
		Tables:   []Table{table},
	}
}

// E21EBGPChurn: the paper's convergence theorem assumes E-BGP input stops
// changing (Section 7, Discussion: no algorithm converges under perpetual
// change). This experiment quantifies the practical counterpart: after
// *each* E-BGP change the modified protocol re-converges within a small,
// diameter-bounded number of fair rounds, and the configuration it reaches
// is exactly the one a cold-started AS with the same E-BGP input reaches —
// history independence under churn.
func E21EBGPChurn(opts Options) Report {
	opts.fill()
	maxRounds := 0
	historyOK := true
	epochs := 0
	for _, c := range opts.SweepSizes {
		for seed := int64(0); seed < int64(opts.Seeds); seed++ {
			sys := workload.MustGenerate(workload.Default(c), seed)
			if sys.NumExits() < 2 {
				continue
			}
			e := protocol.New(sys, protocol.Modified, selection.Options{})
			protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 6000})
			rng := seed*7 + 3
			withdrawn := map[bgp.PathID]bool{}
			for epoch := 0; epoch < 6; epoch++ {
				// Deterministic pseudo-random toggle of one exit path.
				rng = rng*6364136223846793005 + 1442695040888963407
				id := bgp.PathID(uint64(rng) % uint64(sys.NumExits()))
				if withdrawn[id] {
					e.Restore(id)
					e.ResetNode(sys.Exit(id).ExitPoint) // the exit router relearns it
					delete(withdrawn, id)
				} else if len(withdrawn) < sys.NumExits()-1 {
					e.Withdraw(id)
					withdrawn[id] = true
				} else {
					continue
				}
				epochs++
				// Count rounds to stability.
				rounds := 0
				for !e.Stable() && rounds < 20 {
					for u := 0; u < sys.N(); u++ {
						e.Activate(bgp.NodeID(u))
					}
					rounds++
				}
				if rounds > maxRounds {
					maxRounds = rounds
				}
				// History independence: a cold-started engine over the
				// same surviving E-BGP input reaches the same routes.
				fresh := protocol.New(sys, protocol.Modified, selection.Options{})
				for w := range withdrawn {
					fresh.Withdraw(w)
				}
				fresh.ResetAll()
				fres := protocol.Run(fresh, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 6000})
				if fres.Outcome != protocol.Converged || !fres.Final.BestEqual(e.Snapshot()) {
					historyOK = false
				}
			}
		}
	}
	pass := epochs > 0 && maxRounds <= 8 && historyOK
	return Report{
		ID:       "E21",
		Artifact: "Section 7 discussion (E-BGP churn)",
		Claim:    "after each E-BGP inject/withdraw, modified I-BGP re-converges within a diameter-bounded number of rounds, to exactly the configuration a cold start would reach",
		Measured: fmt.Sprintf("%d churn epochs across the sweep: max re-convergence %d rounds (bound 8); history-independent after every epoch: %v",
			epochs, maxRounds, historyOK),
		Pass: pass,
	}
}

// E22MEDPrevalence quantifies the paper's root-cause claim statistically:
// over random route-reflection systems, persistent oscillation appears
// only when MED values actually differ, and its prevalence grows with the
// MED value range. Systems whose MEDs are uniform never oscillate in the
// sample; the same systems with MEDs re-randomised do.
func E22MEDPrevalence(opts Options) Report {
	opts.fill()
	samples := 60 * opts.Seeds / 8
	if samples < 30 {
		samples = 30
	}
	table := Table{
		Title:  "Classic I-BGP oscillation prevalence vs MED spread (random systems)",
		Header: []string{"MED range", "systems", "oscillating (round-robin cycle proved)", "prevalence"},
	}
	counts := map[int]int{}
	for _, maxMED := range []int{0, 1, 2} {
		osc := 0
		for seed := int64(0); seed < int64(samples); seed++ {
			p := workload.Default(4)
			p.MaxMED = maxMED
			sys, err := workload.Generate(p, seed)
			if err != nil {
				continue
			}
			if runRR(sys, protocol.Classic, selection.Options{}, 4000).Outcome == protocol.Cycled {
				osc++
			}
		}
		counts[maxMED] = osc
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("[0,%d]", maxMED), fmt.Sprintf("%d", samples),
			fmt.Sprintf("%d", osc), fmt.Sprintf("%.1f%%", 100*float64(osc)/float64(samples)),
		})
	}
	pass := counts[0] == 0 && counts[2] > 0 && counts[2] >= counts[1]
	return Report{
		ID:       "E22",
		Artifact: "Section 1/3 root cause, statistically",
		Claim:    "without MED differences random reflection systems do not oscillate persistently; with them, a measurable fraction does",
		Measured: fmt.Sprintf("uniform MEDs: %d/%d oscillate; MED in [0,1]: %d; MED in [0,2]: %d",
			counts[0], samples, counts[1], counts[2]),
		Pass:   pass,
		Tables: []Table{table},
	}
}

// e23Shards is the shard count E23 compares against one shard. It is fixed,
// not GOMAXPROCS, so the comparison shards the campaign on every host.
const e23Shards = 4

// E23Census runs the parallel oscillation census over a pinned seed range
// of a small MED-rich random family and checks the engine's determinism
// contract end to end: the aggregate JSON must be byte-identical between a
// single-worker and an e23Shards-worker run, classic I-BGP must oscillate on
// a measurable fraction of the family, and the modified protocol must
// converge on every instance (Lemma 7.4 at census scale).
func E23Census(opts Options) Report {
	opts.fill()
	seeds := 100 * opts.Seeds / 8
	if seeds < 24 {
		seeds = 24
	}
	job := campaign.CensusJob{
		Params: workload.Params{
			Clusters: 2, MinClients: 1, MaxClients: 2, ASes: 2,
			Exits: 4, MaxMED: 2, MaxCost: 8, ExtraLinks: 2,
		},
		MaxStates: 1500,
	}
	run := func(shards int) (*campaign.Aggregate, []byte, error) {
		agg, err := campaign.Run(context.Background(), job, campaign.Config{
			Shards: shards, Start: 1, Seeds: seeds,
		})
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(agg)
		return agg, b, err
	}
	agg, serial, err := run(1)
	if err != nil {
		return Report{ID: "E23", Artifact: "oscillation census", Measured: err.Error()}
	}
	_, sharded, err := run(e23Shards)
	if err != nil {
		return Report{ID: "E23", Artifact: "oscillation census", Measured: err.Error()}
	}
	identical := string(serial) == string(sharded)

	classified := agg.Completed - agg.Errors
	pass := identical && agg.Completed == seeds &&
		agg.ClassicOsc > 0 && agg.ModifiedConv == classified
	table := Table{
		Title:  fmt.Sprintf("Census over seeds [1,%d] of the 2-cluster MED-rich family (state budget %d)", seeds, job.MaxStates),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"systems classified", fmt.Sprintf("%d", classified)},
			{"classic oscillates", fmt.Sprintf("%d (%.1f%%)", agg.ClassicOsc, 100*agg.OscillationRate())},
			{"walton oscillates", fmt.Sprintf("%d", agg.WaltonOsc)},
			{"MED-induced", fmt.Sprintf("%d", agg.MEDInduced)},
			{"modified converges", fmt.Sprintf("%d", agg.ModifiedConv)},
			{"exhaustively explored", fmt.Sprintf("%d", agg.Exhaustive)},
			{"states explored", fmt.Sprintf("%d (max %d per variant)", agg.TotalStates, agg.MaxStates)},
			{fmt.Sprintf("shards=1 vs shards=%d aggregates", e23Shards), map[bool]string{true: "byte-identical", false: "DIVERGED"}[identical]},
		},
	}
	return Report{
		ID:       "E23",
		Artifact: "oscillation census (campaign engine)",
		Claim:    "census aggregates are a pure function of the seed range; classic I-BGP oscillates on a measurable fraction of MED-rich random systems while modified always converges",
		Measured: fmt.Sprintf("%d seeds: classic oscillates on %d (%.1f%%, %d MED-induced), walton on %d, modified converges on %d/%d; shards=1 vs shards=%d JSON %s",
			seeds, agg.ClassicOsc, 100*agg.OscillationRate(), agg.MEDInduced, agg.WaltonOsc,
			agg.ModifiedConv, classified, e23Shards,
			map[bool]string{true: "byte-identical", false: "DIVERGED"}[identical]),
		Pass:   pass,
		Tables: []Table{table},
	}
}

func pathName(id bgp.PathID) string {
	if id == bgp.None {
		return "-"
	}
	return fmt.Sprintf("p%d", id)
}

// Markdown renders reports as the EXPERIMENTS.md body.
func Markdown(reports []Report) string {
	var b strings.Builder
	b.WriteString("| ID | Paper artifact | Claim | Measured | Pass |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range reports {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
			r.ID, r.Artifact, r.Claim, r.Measured, status)
	}
	for _, r := range reports {
		for _, t := range r.Tables {
			fmt.Fprintf(&b, "\n### %s — %s\n\n", r.ID, t.Title)
			b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
			b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
			for _, row := range t.Rows {
				b.WriteString("| " + strings.Join(row, " | ") + " |\n")
			}
		}
	}
	return b.String()
}
