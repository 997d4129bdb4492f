// Command oscheck analyses the stability of a topology: it enumerates the
// stable solutions of classic I-BGP, explores the reachable configuration
// graph (deciding the paper's STABLE I-BGP WITH ROUTE REFLECTION question
// for small systems), and reports whether each policy can or must
// oscillate.
//
// Usage:
//
//	oscheck -topology sys.json [-figure 1a|...] [-subsets] [-max-states N]
//
// A bad flag value exits 2; -h shows each flag's range or names.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bgp"
	"repro/internal/cli"
	"repro/internal/explore"
	"repro/internal/protocol"
	"repro/internal/selection"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "topology JSON file")
		figure    = flag.String("figure", "", "paper figure: 1a, 1b, 2, 3, 12, 13, 14")
		subsets   = flag.Bool("subsets", false, "explore all activation subsets (exact, exponential)")
		maxStates = cli.Int("max-states", 500000, 1, "reachable-state budget")
	)
	flag.Parse()

	sys, err := cli.LoadSystem(*topoPath, *figure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oscheck:", err)
		os.Exit(1)
	}

	fmt.Printf("system: %d routers, %d clusters, %d exit paths\n\n",
		sys.N(), sys.NumClusters(), sys.NumExits())

	// Global stable-solution enumeration (classic only).
	enum := explore.EnumerateStableClassic(protocol.New(sys, protocol.Classic, selection.Options{}), 0)
	if enum.Truncated {
		fmt.Printf("classic stable solutions: enumeration truncated after %d candidates\n", enum.Candidates)
	} else {
		fmt.Printf("classic stable solutions (anywhere in configuration space): %d\n", len(enum.Solutions))
		for i, s := range enum.Solutions {
			fmt.Printf("  solution %d: %s\n", i+1, s)
		}
	}
	fmt.Println()

	mode := explore.SingletonsPlusAll
	if *subsets {
		mode = explore.AllSubsets
	}
	exitCode := 0
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified} {
		e := protocol.New(sys, policy, selection.Options{})
		a := explore.Reachable(e, explore.Options{Mode: mode, MaxStates: *maxStates})
		verdict := "STABILIZABLE"
		switch {
		case a.Truncated:
			verdict = "UNDECIDED (budget exhausted)"
		case !a.Stabilizable():
			verdict = "PERSISTENT OSCILLATION (no reachable fixed point)"
			if policy == protocol.Classic {
				exitCode = 3
			}
		}
		fmt.Printf("%-8s reachable states=%-8d fixed points=%-3d %s\n",
			policy, a.States, len(a.FixedPoints), verdict)

		if !a.Truncated && !a.Stabilizable() {
			// Print a concrete oscillation cycle as the proof artifact.
			e2 := protocol.New(sys, policy, selection.Options{})
			if steps, cycleLen, ok := protocol.CycleWitness(e2, protocol.RoundRobin(sys.N()), 20000); ok {
				fmt.Printf("         witness cycle under round-robin (%d round(s)):\n", cycleLen)
				for _, st := range steps {
					fmt.Printf("           %s: %s -> %s\n",
						sys.Name(st.Node), pathName(st.From), pathName(st.To))
				}
			}
		}
	}
	os.Exit(exitCode)
}

func pathName(id bgp.PathID) string {
	if id == bgp.None {
		return "(none)"
	}
	return fmt.Sprintf("p%d", id)
}
