// Command ibgplint statically analyses I-BGP route-reflection
// configurations for structural misconfigurations and oscillation-risk
// patterns, without running any protocol engine (package lint).
//
// Usage:
//
//	ibgplint [-json] [-v] [-prove] [-fail-on none|risk|fail] [-figure NAME|all]
//	         [-gen k=v,...] [-seed N] [-gen-out FILE] [topology.json ...]
//
// A bad flag value exits 2, and so does -seed or -gen-out without -gen,
// the flag that reads them; -h shows each flag's range or names.
//
// Each input gets a PASS/RISK/FAIL verdict: FAIL for violations of the
// paper's structural model (Section 4), RISK when a sufficient
// oscillation precondition is present (the Section 3 MED/cluster
// interaction or a cross-cluster dispute cycle), PASS otherwise — with
// safety certificates explaining why (-v shows them). A spec with
// prefixExits gets one report per prefix ("FILE prefix I"); a spec that
// breaks the structural rules gets one FAIL report listing every problem.
//
// With -prove, the SAT-backed exact passes run as well: prove-stable
// decides whether any stable routing exists (UNSAT is a proof of
// persistent oscillation), prove-wheel whether it is unique. Findings
// carry decoded witnesses — a replay-verified stable configuration, or a
// dispute wheel between two of them — printed inline in text mode and in
// full under -json.
//
// With -gen, an ISP-style topology is generated (package topogen; keys
// regions, rrs, pops, poprrs, clients, ases, exits, maxmed, corecost,
// accesscost — "-gen default" and "-gen small" select the bundled
// families) from -seed and linted like any other input; -gen-out writes
// its JSON for reuse ("-" for stdout).
//
// The exit status is 0 unless -fail-on is set: with -fail-on fail the
// command exits 1 when any input FAILs, with -fail-on risk when any input
// is RISK or worse. The default is reporting-only so that linting a
// directory of example topologies (including deliberately broken
// fixtures) succeeds in CI.
//
// To check a RISK verdict dynamically, run the exhaustive reachable-state
// search on the same topology: oscheck -topology FILE -max-states N either
// proves the oscillation persistent (no stable configuration reachable) or
// shows it is at most transient from cold start.
//
// Confederation specs (package confed) are skipped with a note: they
// describe a different session model.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/cli"
	"repro/internal/figures"
	"repro/internal/lint"
	"repro/internal/topogen"
	"repro/internal/topology"
)

func main() {
	var (
		asJSON  = flag.Bool("json", false, "emit the reports as JSON")
		verbose = flag.Bool("v", false, "also print info-level findings (safety certificates)")
		prove   = flag.Bool("prove", false, "run the SAT-backed exact passes (prove-stable, prove-wheel) and print witnesses")
		failOn  = cli.Choice("fail-on", "none", "exit 1 at this verdict or worse", map[string]lint.Verdict{
			"none": lint.VerdictFail + 1, "risk": lint.VerdictRisk, "fail": lint.VerdictFail,
		})
		figure  = flag.String("figure", "", "lint a paper figure ("+fmt.Sprint(cli.FigureNames())+") or \"all\"")
		gen     = flag.String("gen", "", "generate and lint an ISP-style topology (topogen key=value list, or \"default\"/\"small\")")
		genSeed = cli.Int64("seed", 1, math.MinInt64, "generator seed")
		genOut  = flag.String("gen-out", "", "write the generated topology's JSON to this file (\"-\" for stdout)")
	)
	cli.Parse(cli.Gate("gen", "seed", "gen-out"))

	if *figure == "" && *gen == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "ibgplint: nothing to lint; pass topology JSON files, -figure and/or -gen")
		flag.Usage()
		os.Exit(2)
	}

	lintSystem, lintSpecFn := lint.LintSystem, lint.LintSpec
	if *prove {
		lintSystem, lintSpecFn = lint.ProveSystem, lint.ProveSpec
	}

	var reports []*lint.Report
	if *figure != "" {
		for _, e := range figures.All() {
			if *figure == "all" || *figure == e.Name {
				reports = append(reports, lintSystem("fig"+e.Name, e.Build().Sys))
			}
		}
		if len(reports) == 0 {
			fmt.Fprintf(os.Stderr, "ibgplint: unknown figure %q (want one of %v or all)\n", *figure, cli.FigureNames())
			os.Exit(2)
		}
	}
	if *gen != "" {
		tspec, err := cli.TopogenFamily(*gen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibgplint:", err)
			os.Exit(2)
		}
		spec, err := topogen.Generate(tspec, *genSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibgplint:", err)
			os.Exit(2)
		}
		if *genOut != "" {
			if err := writeGenerated(*genOut, spec); err != nil {
				fmt.Fprintln(os.Stderr, "ibgplint:", err)
				os.Exit(2)
			}
		}
		source := fmt.Sprintf("topogen(seed=%d,n=%d)", *genSeed, tspec.N())
		reports = append(reports, lintSpecFn(source, spec)...)
	}
	for _, path := range flag.Args() {
		reports = append(reports, lintFile(path, lintSpecFn)...)
	}

	var err error
	if *asJSON {
		err = lint.WriteJSON(os.Stdout, reports...)
	} else {
		err = lint.WriteText(os.Stdout, *verbose, reports...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibgplint:", err)
		os.Exit(2)
	}
	for _, r := range reports {
		if r.Verdict >= *failOn {
			os.Exit(1)
		}
	}
}

// writeGenerated saves a generated topology's JSON ("-" writes stdout).
func writeGenerated(path string, spec *topology.Spec) error {
	if path == "-" {
		return topogen.Write(os.Stdout, spec)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := topogen.Write(f, spec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lintFile lints one topology file with the selected spec entry point
// (LintSpec, or ProveSpec under -prove), folding I/O and parse problems
// into the report as findings so a bad file cannot abort a multi-file
// run.
func lintFile(path string, lintSpecFn func(string, *topology.Spec) []*lint.Report) []*lint.Report {
	data, err := os.ReadFile(path)
	if err != nil {
		return errorReport(path, "read", err)
	}
	if isConfedSpec(data) {
		return []*lint.Report{{
			Source:  path,
			Verdict: lint.VerdictPass,
			Findings: []lint.Finding{{
				Pass:     "parse",
				Severity: lint.Info,
				Detail:   "confederation spec (subASes): skipped — confed-BGP uses a different session model",
			}},
		}}
	}
	spec, err := topology.ParseSpec(bytes.NewReader(data))
	if err != nil {
		return errorReport(path, "parse", err)
	}
	return lintSpecFn(path, spec)
}

// isConfedSpec sniffs for the confederation schema's mandatory subASes key.
func isConfedSpec(data []byte) bool {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	_, ok := probe["subASes"]
	return ok
}

func errorReport(path, pass string, err error) []*lint.Report {
	return []*lint.Report{{
		Source:  path,
		Verdict: lint.VerdictFail,
		Findings: []lint.Finding{{
			Pass:     pass,
			Severity: lint.Error,
			Detail:   err.Error(),
		}},
	}}
}
