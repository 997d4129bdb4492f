package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec mirrors BENCHMARK.json, the driver contract at the repository
// root: the workloads, every metric with its unit and direction, and for
// the end-to-end ones the share by which it may worsen.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one metric of one workload, B (the change) against A (the
// parent). Ratios are B over A throughout.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "WORSE"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
	unbounded  verdict = "-" // a per-layer metric: reported, never judged
)

// judge applies the choosing-metrics rule. A median worse by more than the
// bound is a regression whatever the spread. Otherwise, when either side's
// own min-max spread exceeds the bound the row is unresolved — not
// unchanged — unless every run of B reads better than every run of A.
func judge(a, b summary, lowerIsBetter bool, bound float64) verdict {
	sign := 1.0 // orient so that a larger oriented value is worse
	if !lowerIsBetter {
		sign = -1
	}
	worsening := sign * (*b.Median - *a.Median) / *a.Median
	if worsening > bound {
		return worse
	}
	spread := func(s summary) float64 { return (*s.Max - *s.Min) / *s.Median }
	bWorst, aBest := *b.Max, *a.Min
	if !lowerIsBetter {
		bWorst, aBest = *b.Min, *a.Max
	}
	allBetter := sign*(bWorst-aBest) < 0
	if spread(a) > bound || spread(b) > bound {
		if allBetter {
			return better
		}
		return unresolved
	}
	if worsening < -bound {
		return better
	}
	return unchanged
}

// compareFiles prints one row per (workload, metric) present in both
// result files and returns an error — so that the command exits 1 — on a
// regression, a higher failed share or a changed state hash.
func compareFiles(specPath, pathA, pathB string, w io.Writer) error {
	var spec benchSpec
	var a, b resultFile
	if err := loadJSON(specPath, &spec); err != nil {
		return err
	}
	if err := loadJSON(pathA, &a); err != nil {
		return err
	}
	if err := loadJSON(pathB, &b); err != nil {
		return err
	}
	if a.Traced != b.Traced || a.Quick != b.Quick || a.Seconds != b.Seconds {
		return fmt.Errorf("the two files were not taken with the same settings (traced %v/%v, quick %v/%v, seconds %v/%v)",
			a.Traced, b.Traced, a.Quick, b.Quick, a.Seconds, b.Seconds)
	}
	metrics := spec.EndToEnd
	if a.Traced {
		metrics = spec.PerLayer
	}
	fmt.Fprintf(w, "A = %s (commit %s), B = %s (commit %s); ratio is B/A, its base is A's median\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-18s %-34s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "A median", "A [min, max]", "B median", "B [min, max]", "ratio", "verdict")
	var problems []string
	for _, wl := range spec.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			continue
		}
		for _, m := range metrics {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			if sa.Median == nil || sb.Median == nil || *sa.Median == 0 {
				continue // null speed-ups, and layer metrics this workload does not measure
			}
			v := unbounded
			if m.Bound != nil {
				v = judge(sa, sb, m.Better == "lower", *m.Bound)
			}
			if v == worse {
				problems = append(problems, fmt.Sprintf("%s %s regressed", wl.Name, m.Name))
			}
			fmt.Fprintf(w, "%-18s %-34s %12.6g %25s %12.6g %25s %8.4f  %s\n", wl.Name, m.Name,
				*sa.Median, fmt.Sprintf("[%.6g, %.6g]", *sa.Min, *sa.Max),
				*sb.Median, fmt.Sprintf("[%.6g, %.6g]", *sb.Min, *sb.Max), *sb.Median / *sa.Median, v)
		}
		shareA := float64(ra.Failed) / float64(ra.Attempted)
		shareB := float64(rb.Failed) / float64(rb.Attempted)
		v := unchanged
		if shareB > shareA {
			v = worse
			problems = append(problems, fmt.Sprintf("%s failed_share rose", wl.Name))
		}
		fmt.Fprintf(w, "%-18s %-34s %12.6f %25s %12.6f %25s %8s  %s\n", wl.Name, "failed_share", shareA,
			fmt.Sprintf("%d of %d", ra.Failed, ra.Attempted), shareB, fmt.Sprintf("%d of %d", rb.Failed, rb.Attempted), "", v)
		if a.Seed != b.Seed {
			continue // exact values are functions of the seed
		}
		for _, k := range sortedKeys(ra.Exact) {
			va, vb := ra.Exact[k], rb.Exact[k]
			if vb == "" {
				continue
			}
			note := "identical"
			if va != vb {
				note = "differs"
				if strings.HasPrefix(k, "state_hash") {
					note = "DIFFERS"
					problems = append(problems, fmt.Sprintf("%s %s changed", wl.Name, k))
				}
			}
			fmt.Fprintf(w, "%-18s %-34s %38s %38s %8s  %s\n", wl.Name, k, va, vb, "", note)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}
