package ibgp

import (
	"io"

	"repro/internal/lint"
	"repro/internal/topology"
)

// Static analysis (package lint): PASS/RISK/FAIL verdicts over a
// configuration without running any protocol engine.
type (
	// LintReport is the outcome of linting one configuration.
	LintReport = lint.Report
	// LintFinding is one diagnostic produced by a lint pass.
	LintFinding = lint.Finding
	// LintPass is one named static check.
	LintPass = lint.Pass
	// LintVerdict is the aggregate PASS/RISK/FAIL judgement.
	LintVerdict = lint.Verdict
	// LintSeverity classifies a lint finding.
	LintSeverity = lint.Severity
	// LintWitness is the machine-checkable evidence on prover findings: a
	// replay-verified stable configuration, or a dispute wheel between
	// two of them.
	LintWitness = lint.Witness
	// LintWheelSpoke is one router on a decoded dispute wheel.
	LintWheelSpoke = lint.WheelSpoke
)

// Lint verdicts.
const (
	// LintPassVerdict: no structural errors, no oscillation-risk pattern.
	LintPassVerdict = lint.VerdictPass
	// LintRiskVerdict: structurally sound, but a sufficient oscillation
	// precondition (Section 3) is present.
	LintRiskVerdict = lint.VerdictRisk
	// LintFailVerdict: the configuration violates the Section 4 model
	// constraints.
	LintFailVerdict = lint.VerdictFail
)

// Lint finding severities.
const (
	// LintInfo marks a safety certificate or note.
	LintInfo = lint.Info
	// LintRisk marks an oscillation-risk pattern.
	LintRisk = lint.Risk
	// LintError marks a structural misconfiguration.
	LintError = lint.Error
)

// LintSystem statically analyses a built System.
func LintSystem(source string, sys *System) *LintReport { return lint.LintSystem(source, sys) }

// LintSpec statically analyses a raw specification. The model's
// structural rules (Section 4) are checked first, over every prefix: a spec
// that breaks any gets one FAIL report listing every problem, each under
// its rule's pass. Otherwise the risk and certificate passes run on each
// prefix's System, one report per prefix; a multi-prefix spec's reports
// are sourced "<source> prefix <i>".
func LintSpec(source string, spec *Spec) []*LintReport { return lint.LintSpec(source, spec) }

// ProveSystem statically analyses a built System in exact mode: on top of
// the heuristic passes, the SAT-backed provers decide whether a stable
// routing exists (UNSAT is a proof of persistent oscillation) and whether
// it is unique, attaching replay-verified witnesses to their findings.
func ProveSystem(source string, sys *System) *LintReport { return lint.ProveSystem(source, sys) }

// ProveSpec is LintSpec in exact mode: the structural check on the raw
// specification, then heuristic and SAT-backed prover passes on each
// prefix's System.
func ProveSpec(source string, spec *Spec) []*LintReport { return lint.ProveSpec(source, spec) }

// LintPasses returns every registered lint pass.
func LintPasses() []LintPass { return lint.Passes() }

// ParseSpec decodes a topology specification from JSON without building
// it, for use with LintSpec.
func ParseSpec(r io.Reader) (*Spec, error) { return topology.ParseSpec(r) }

// WriteLintText renders reports as human-readable text; verbose includes
// info-level findings (the safety certificates).
func WriteLintText(w io.Writer, verbose bool, reports ...*LintReport) error {
	return lint.WriteText(w, verbose, reports...)
}

// WriteLintJSON renders reports as an indented JSON array.
func WriteLintJSON(w io.Writer, reports ...*LintReport) error {
	return lint.WriteJSON(w, reports...)
}
