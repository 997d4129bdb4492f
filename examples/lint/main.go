// Static analysis: lint an I-BGP route-reflection configuration without
// running any protocol engine, then contrast two configurations — the
// deliberately broken fixture (FAIL: a reflector-less cluster and a
// cluster whose parent is a later cluster) and the Figure 1(a) topology
// (RISK: the Section 3 MED/cluster oscillation precondition).
//
// Run from the repository root:
//
//	go run ./examples/lint [topology.json]
package main

import (
	"fmt"
	"log"
	"os"

	ibgp "repro"
)

func main() {
	// With an argument, lint just that file.
	if len(os.Args) > 1 {
		lintFile(os.Args[1], true)
		return
	}

	// The negative fixture: clients with no reflector in their cluster and
	// a parent cycle between two other clusters. The structural check
	// reports both problems under cluster-structure (a cycle needs a parent
	// that is not an earlier cluster); the verdict is FAIL.
	lintFile("examples/topologies/broken-cluster.json", false)

	fmt.Println()

	// Figure 1(a): structurally valid, but two exit paths into the same
	// neighbouring AS carry different MEDs and live in different clusters —
	// the paper's Section 3 precondition for persistent oscillation. The
	// linter reports RISK with the anchoring routers, without simulating a
	// single activation.
	fig := ibgp.Fig1a()
	rep := ibgp.LintSystem("Figure 1(a)", fig.Sys)
	if err := ibgp.WriteLintText(os.Stdout, true, rep); err != nil {
		log.Fatal(err)
	}

	fmt.Println()

	// Machine-readable form of the same report.
	fmt.Println("as JSON:")
	if err := ibgp.WriteLintJSON(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}
}

func lintFile(path string, verbose bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("%v (run from the repository root, or pass a topology file)", err)
	}
	defer f.Close()
	spec, err := ibgp.ParseSpec(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	reps := ibgp.LintSpec(path, spec)
	if err := ibgp.WriteLintText(os.Stdout, verbose, reps...); err != nil {
		log.Fatal(err)
	}
}
