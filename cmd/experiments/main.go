// Command experiments reproduces every evaluation artifact of the paper —
// the behaviour of each figure and the complexity result — and prints the
// paper-claim vs. measured table that EXPERIMENTS.md records.
//
// Usage:
//
//	experiments [-exhaustive] [-seeds N] [-markdown] [-only E1,E8]
//
// A bad flag value exits 2; -h shows each flag's range or names.
// An unknown -only id exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	var (
		exhaustive = flag.Bool("exhaustive", false, "run the expensive exhaustive proofs (notably on Figure 13)")
		seeds      = cli.Int("seeds", 8, 1, "random schedules / delay seeds per experiment")
		markdown   = flag.Bool("markdown", false, "emit the EXPERIMENTS.md body")
		only       = flag.String("only", "", "comma-separated experiment ids to run (default all)")
	)
	flag.Parse()

	opts := experiments.Options{Exhaustive: *exhaustive, Seeds: *seeds}
	var reports []experiments.Report
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			x, ok := experiments.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown id %q\n", id)
				os.Exit(1)
			}
			reports = append(reports, x.Run(opts))
		}
	} else {
		reports = experiments.All(opts)
	}

	if *markdown {
		fmt.Print(experiments.Markdown(reports))
	} else {
		failed := 0
		for _, r := range reports {
			status := "PASS"
			if !r.Pass {
				status = "FAIL"
				failed++
			}
			fmt.Printf("[%s] %-4s %s\n      claim:    %s\n      measured: %s\n",
				status, r.ID, r.Artifact, r.Claim, r.Measured)
			for _, t := range r.Tables {
				fmt.Printf("      %s\n", t.Title)
				fmt.Printf("        %s\n", strings.Join(t.Header, " | "))
				for _, row := range t.Rows {
					fmt.Printf("        %s\n", strings.Join(row, " | "))
				}
			}
		}
		if failed > 0 {
			fmt.Printf("\n%d experiment(s) FAILED\n", failed)
			os.Exit(1)
		}
		fmt.Printf("\nall %d experiments passed\n", len(reports))
	}
}
