package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds (the harness test holds
// the two together).
const defaultSeconds = 8

// pinnedJSON pins, for seed 1 at the stated sizes, the state hashes that
// Lemma 7.4 makes independent of the implementation: workload -> name ->
// hash. A change that moves one of them changed what the protocol
// converges to, not how fast.
//
//go:embed pinned.json
var pinnedJSON []byte

// summary is one metric of one workload over the runs of a result file.
type summary struct {
	Unit   string     `json:"unit"`
	Median *float64   `json:"median"`
	Min    *float64   `json:"min"`
	Max    *float64   `json:"max"`
	Values []*float64 `json:"values"`
}

// workloadResult is one workload's entry in a result file. Exact holds the
// state hashes and counts that are a pure function of the seed.
type workloadResult struct {
	Metrics   map[string]summary `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Exact     map[string]string  `json:"exact"`
}

// resultFile is what a full invocation writes and -compare reads.
type resultFile struct {
	Env       env                       `json:"env"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Runs      int                       `json:"runs"`
	Traced    bool                      `json:"traced"`
	Quick     bool                      `json:"quick"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func summarise(unit string, values []*float64) summary {
	s := summary{Unit: unit, Values: values}
	var xs []float64
	for _, v := range values {
		if v != nil {
			xs = append(xs, *v)
		}
	}
	if len(xs) == 0 {
		return s // a *_speedup on one core: null throughout
	}
	sort.Float64s(xs)
	med, lo, hi := median(xs), xs[0], xs[len(xs)-1]
	s.Median, s.Min, s.Max = &med, &lo, &hi
	return s
}

// agreeing lists, per workload, the other workload whose exact values of
// the same name must match: the pairs differ only in codec or in faults,
// which by Lemma 7.4 cannot change the state reached.
var agreeing = map[string]string{
	"sim-churn-faults": "sim-churn",
	"tcp-bgp4":         "tcp-private",
}

// runAll runs every selected workload `runs` times, prints each run, and
// writes the per-metric medians to <outDir>/result.json. Beyond each run's
// own checks it holds the runs of a workload, the agreeing workload pairs
// and the pinned hashes against each other.
func runAll(selected []workload, o options, e env) error {
	defs := o.defs()
	out := resultFile{Env: e, Seed: o.seed, Seconds: o.seconds.Seconds(), Runs: o.runs, Traced: o.traced, Quick: o.quick,
		Workloads: map[string]workloadResult{}}
	mismatches := 0
	mismatch := func(format string, args ...any) {
		mismatches++
		fmt.Printf("MISMATCH: "+format+"\n", args...)
	}
	for _, w := range selected {
		wr := workloadResult{Metrics: map[string]summary{}, Exact: map[string]string{}}
		values := map[string][]*float64{}
		for run := 0; run < o.runs; run++ {
			c, r, err := runOnce(w, o)
			if err != nil {
				return err
			}
			fmt.Printf("%s seed %d run %d/%d\n", w.name, o.seed, run+1, o.runs)
			printRun(c, r, defs)
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			for _, d := range defs {
				values[d.name] = append(values[d.name], r.Metrics[d.name].Value)
			}
			for k, v := range c.hashes {
				if prev, ok := wr.Exact[k]; ok && prev != v {
					mismatch("%s: %s is %s on run %d but was %s before", w.name, k, v, run+1, prev)
				}
				wr.Exact[k] = v
			}
		}
		for _, d := range defs {
			wr.Metrics[d.name] = summarise(d.unit, values[d.name])
		}
		out.Workloads[w.name] = wr
	}

	for name, other := range agreeing {
		a, b := out.Workloads[name], out.Workloads[other]
		for k, v := range a.Exact {
			if strings.HasPrefix(k, "state_hash") && b.Exact[k] != "" && b.Exact[k] != v {
				mismatch("%s reached %s = %s, %s reached %s", name, k, v, other, b.Exact[k])
			}
		}
	}
	if o.seed == 1 && !o.quick {
		var pinned map[string]map[string]string
		if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
			return fmt.Errorf("pinned.json: %w", err)
		}
		for name, wr := range out.Workloads {
			for k, want := range pinned[name] {
				if got, ok := wr.Exact[k]; ok && got != want {
					mismatch("%s: %s is %s, pinned %s", name, k, got, want)
				}
			}
		}
	}

	fmt.Printf("\n%-18s %-34s %14s %14s %14s  %s\n", "workload", "metric", "median", "min", "max", "unit")
	failed := 0
	for _, w := range selected {
		wr := out.Workloads[w.name]
		failed += wr.Failed
		for _, d := range defs {
			s := wr.Metrics[d.name]
			if s.Median == nil {
				fmt.Printf("%-18s %-34s %14s %14s %14s  %s\n", w.name, d.name, "null", "null", "null", d.unit)
				continue
			}
			fmt.Printf("%-18s %-34s %14.6g %14.6g %14.6g  %s\n", w.name, d.name, *s.Median, *s.Min, *s.Max, d.unit)
		}
		fmt.Printf("%-18s %-34s %14.6f  (%d of %d operations failed)\n", w.name, "failed_share", float64(wr.Failed)/float64(wr.Attempted), wr.Failed, wr.Attempted)
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	if failed > 0 || mismatches > 0 {
		return fmt.Errorf("%d failed operations, %d state mismatches", failed, mismatches)
	}
	return nil
}
