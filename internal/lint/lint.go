// Package lint is a static oscillation-risk analyzer for I-BGP
// route-reflection configurations.
//
// The paper proves (Section 5) that deciding whether a configuration of
// I-BGP with route reflection can reach a stable routing is NP-complete,
// so exhaustive exploration (package explore) cannot scale. This package
// takes the operational alternative: a set of cheap, named passes that —
// without running any protocol engine — certify structural well-formedness
// and detect the *sufficient conditions for trouble* the paper identifies:
//
//   - structural misconfigurations (Section 4): clusters without
//     reflectors, parents that are not earlier clusters (the paper's
//     acyclic hierarchy), routers with two roles, dangling references,
//     out-of-range attributes and a disconnected physical graph. The rules
//     are package topology's (topology.Check); lint reports their problems
//     under one pass per rule family;
//   - oscillation-risk patterns: per-neighbouring-AS MED interaction
//     spanning multiple clusters (the Figure 1(a) precondition, Section 3)
//     and dispute cycles in the route-preference digraph over reflectors
//     (the Figure 2 pattern);
//   - safety certificates: sufficient conditions (full mesh, MED-free
//     selection, hierarchy-monotone IGP metrics) under which classic
//     I-BGP provably converges.
//
// A pass emits Findings; a Report aggregates them into a PASS/RISK/FAIL
// verdict. The system passes inspect a built topology.System, so they run
// only on specs that pass the structural check.
package lint

import (
	"fmt"
	"sync"

	"repro/internal/bgp"
	"repro/internal/selection"
	"repro/internal/topology"
)

// Severity classifies a finding.
type Severity int

const (
	// Info marks an informational note, typically a safety certificate.
	Info Severity = iota
	// Risk marks an oscillation-risk pattern: the configuration matches a
	// sufficient precondition for (transient or persistent) oscillation.
	Risk
	// Error marks a structural misconfiguration that violates the model
	// constraints of Section 4.
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Risk:
		return "risk"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Verdict is the aggregate judgement over a configuration.
type Verdict int

const (
	// VerdictPass: no structural errors and no oscillation-risk pattern.
	VerdictPass Verdict = iota
	// VerdictRisk: structurally sound, but a sufficient oscillation
	// precondition is present.
	VerdictRisk
	// VerdictFail: the configuration violates the structural constraints.
	VerdictFail
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "PASS"
	case VerdictRisk:
		return "RISK"
	case VerdictFail:
		return "FAIL"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// MarshalJSON renders the verdict as its string form.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// Finding is one diagnostic produced by a pass.
type Finding struct {
	// Pass is the name of the pass that produced the finding.
	Pass string `json:"pass"`
	// Severity classifies the finding.
	Severity Severity `json:"severity"`
	// Nodes lists the router names the finding is anchored at, if any.
	Nodes []string `json:"nodes,omitempty"`
	// Paths lists the exit paths involved (as "p<ID>"), if any.
	Paths []string `json:"paths,omitempty"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
	// Ref cites the paper section the check derives from.
	Ref string `json:"ref,omitempty"`
	// Witness, for prover findings, carries machine-checkable evidence
	// decoded from a SAT model: a stable configuration, or a dispute
	// wheel between two of them.
	Witness *Witness `json:"witness,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("[%s] %s: %s", f.Pass, f.Severity, f.Detail)
	if f.Ref != "" {
		s += " (" + f.Ref + ")"
	}
	return s
}

// Pass is one named static check. The structural passes have a nil
// System: they name the rule families of topology.Check, whose problems
// LintSpec reports under them. Every other pass runs System on a built,
// structurally valid System.
type Pass struct {
	// Name identifies the pass in findings and reports.
	Name string
	// Doc is a one-line description of what the pass checks.
	Doc string
	// Ref cites the paper section the pass derives from.
	Ref string
	// Exact marks the SAT-backed prover passes: they decide stability
	// exactly instead of pattern-matching a sufficient condition, at a
	// cost exponential in the worst case (Section 5). They only run under
	// ProveSystem / ProveSpec, never under the default Lint entry points.
	Exact bool
	// System, when non-nil, runs the pass on a built system, through the
	// shared per-run Context.
	System func(*Context) []Finding
}

// Passes returns every registered pass: the structural passes first, then
// system-level risk and certificate passes, then the exact prover passes
// (which only run in exact mode).
func Passes() []Pass {
	return append(structuralPasses(),
		medInteractionPass(),
		disputeCyclePass(),
		certificatePass(),
		proveStablePass(),
		proveWheelPass(),
	)
}

// Context carries the system under analysis plus the indexes the
// system-level passes share, so the rule-1/2 survivor set and the reflector
// roster are computed once per lint run instead of once per pass. The
// shared parts are built before the passes run (the passes execute
// concurrently) and are read-only afterwards; the IGP trees behind route
// metrics fill on demand in the system's race-free cache.
type Context struct {
	// Sys is the built system under analysis.
	Sys *topology.System
	// Cands holds the selection rule-1/2 survivors among the exits — the
	// candidate set every risk pass reasons over.
	Cands []bgp.ExitPath
	// Reflectors lists the reflector nodes, ascending.
	Reflectors []bgp.NodeID

	proveOnce sync.Once
	prove     *proveIndex
}

// NewContext indexes sys for the system-level passes.
func NewContext(sys *topology.System) *Context {
	ctx := &Context{Sys: sys, Cands: selection.Survivors12(sys.Exits())}
	for u := 0; u < sys.N(); u++ {
		id := bgp.NodeID(u)
		if sys.Role(id) == topology.Reflector {
			ctx.Reflectors = append(ctx.Reflectors, id)
		}
	}
	return ctx
}

// runSystemPasses executes the system-level passes concurrently and
// appends their findings in registry order, so the report is byte-stable
// regardless of scheduling.
func runSystemPasses(r *Report, sys *topology.System, exact bool) {
	ctx := NewContext(sys)
	passes := Passes()
	out := make([][]Finding, len(passes))
	var wg sync.WaitGroup
	for i, p := range passes {
		if p.System == nil || (p.Exact && !exact) {
			continue
		}
		wg.Add(1)
		go func(i int, run func(*Context) []Finding) {
			defer wg.Done()
			out[i] = run(ctx)
		}(i, p.System)
	}
	wg.Wait()
	for _, fs := range out {
		r.Findings = append(r.Findings, fs...)
	}
}

// Report is the outcome of linting one configuration.
type Report struct {
	// Source names the configuration (file path, figure name, ...).
	Source string `json:"source"`
	// Verdict is the aggregate judgement.
	Verdict Verdict `json:"verdict"`
	// Findings lists every diagnostic, in pass order.
	Findings []Finding `json:"findings"`
}

// verdict recomputes the aggregate judgement from the findings.
func (r *Report) verdict() Verdict {
	v := VerdictPass
	for _, f := range r.Findings {
		switch f.Severity {
		case Error:
			return VerdictFail
		case Risk:
			v = VerdictRisk
		}
	}
	return v
}

// HasPass reports whether some finding came from the named pass.
func (r *Report) HasPass(name string) bool {
	for _, f := range r.Findings {
		if f.Pass == name {
			return true
		}
	}
	return false
}

// LintSystem runs every non-exact system-level pass over a built system.
func LintSystem(source string, sys *topology.System) *Report {
	return lintSystem(source, sys, false)
}

// ProveSystem is LintSystem plus the exact SAT-backed prover passes: the
// verdict is then exact on the "no stable configuration exists" side (an
// UNSAT prove-stable outcome is a proof of persistent oscillation) and
// carries decoded witnesses on the SAT side.
func ProveSystem(source string, sys *topology.System) *Report {
	return lintSystem(source, sys, true)
}

func lintSystem(source string, sys *topology.System, exact bool) *Report {
	r := &Report{Source: source}
	runSystemPasses(r, sys, exact)
	r.Verdict = r.verdict()
	return r
}

// LintSpec lints a raw specification. A spec that breaks the model's
// structural rules (topology.Check) gets one FAIL report listing every
// problem under its rule's pass. Otherwise the system-level passes run on
// every prefix's system, one report each; a multi-prefix spec's reports
// name their prefix ("<source> prefix <i>").
func LintSpec(source string, spec *topology.Spec) []*Report {
	return lintSpec(source, spec, false)
}

// ProveSpec is LintSpec with the exact prover passes included at the
// system level.
func ProveSpec(source string, spec *topology.Spec) []*Report {
	return lintSpec(source, spec, true)
}

func lintSpec(source string, spec *topology.Spec, exact bool) []*Report {
	if problems := topology.Check(spec); len(problems) > 0 {
		return []*Report{structuralReport(source, problems)}
	}
	systems, err := topology.BuildSpecAll(spec)
	if err != nil {
		return []*Report{{Source: source, Verdict: VerdictFail, Findings: []Finding{{
			Pass: "build", Severity: Error, Detail: err.Error(),
		}}}}
	}
	reports := make([]*Report, len(systems))
	for i, sys := range systems {
		src := source
		if len(systems) > 1 {
			src = fmt.Sprintf("%s prefix %d", source, i)
		}
		reports[i] = lintSystem(src, sys, exact)
	}
	return reports
}
