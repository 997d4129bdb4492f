package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden testdata files")

// TestMain doubles as the command: with RUN_MAIN set the test binary runs
// main on its arguments, so the golden tests drive the real flag parsing,
// output and exit status without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the census aggregate and the exit status: the lint job
// over 20 seeds (lint's verdicts against the exhaustive search), and each
// out-of-range or unknown flag value or flag the job does not read, which
// is a usage error (exit 2, nothing on stdout, stderr naming the flag and
// its bound, names or jobs) rather than a default or a run. -update
// rewrites testdata/<name>.golden.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   []string // facts the golden output must state
		stderr string   // for a bad flag value: what stderr must state
	}{
		{"lint-20", []string{"-job", "lint", "-seeds", "20"},
			[]string{"20 completed", "TP 2  FP 15  FN 0  TN 3", "exit status 0"}, ""},
		{"max-states-negative", []string{"-max-states", "-7"}, nil, "flag -max-states: must be at least 0"},
		{"plans-negative", []string{"-job", "chaos", "-plans", "-2"}, nil, "flag -plans: must be at least 1"},
		{"workers-negative", []string{"-workers", "-3"}, nil, "flag -workers: must be at least 0"},
		{"shards-negative", []string{"-shards", "-4"}, nil, "flag -shards: must be at least 0"},
		{"schedules-zero", []string{"-job", "fuzz", "-schedules", "0"}, nil, "flag -schedules: must be at least 1"},
		{"rounds-zero", []string{"-job", "scale", "-rounds", "0"}, nil, "flag -rounds: must be at least 1"},
		{"seeds-zero", []string{"-seeds", "0"}, nil, "flag -seeds: must be at least 1"},
		{"progress-negative", []string{"-progress", "-1s"}, nil, "flag -progress: must be at least 0s"},
		{"job-unknown", []string{"-job", "bogus"}, nil, "flag -job: must be one of census, chaos, fig13, fuzz, lint or scale"},
		// A flag the chosen job does not read is a usage error too, never a
		// silent no-op.
		{"chaos-unread-flags", []string{"-job", "chaos", "-seeds", "2", "-plans", "1", "-workers", "7",
			"-max-states", "9", "-rounds", "4", "-scale-plans", "3"}, nil,
			"flag -workers is not read by -job chaos, only by -job census, fig13 or lint"},
		{"census-churn", []string{"-job", "census", "-churn", "rate=40"}, nil,
			"flag -churn is not read by -job census, only by -job scale"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, stderr := runMain(t, tc.args)
			if tc.stderr != "" && (got != "exit status 2\n" || !strings.Contains(stderr, tc.stderr)) {
				t.Errorf("bad flag value: got %q and stderr\n%s\nwant exit status 2, no stdout and %q", got, stderr, tc.stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("output lacks %q:\n%s", w, got)
				}
			}
			golden(t, tc.name, got)
		})
	}
}

// runMain runs the command with args and returns its stdout followed by an
// "exit status N" line, and its stderr.
func runMain(t *testing.T, args []string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return fmt.Sprintf("%sexit status %d\n", stdout.String(), code), stderr.String()
}

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
