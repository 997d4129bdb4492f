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

// TestGolden pins the simulator's per-event trace, counter lines, best
// vector and exit status byte for byte: three faulted modified-protocol
// runs (drops, duplicates, delays and a session reset all book through
// the router core) and one fault-free classic run that never quiesces.
// -update rewrites testdata/<name>.golden.
func TestGolden(t *testing.T) {
	sim := []string{"-substrate", "sim", "-trace"}
	for _, tc := range []struct {
		name   string
		args   []string
		want   []string // facts the golden output must state
		stderr string   // for a bad flag value: what stderr must state
	}{
		{"fig1a-faults", append([]string{"-figure", "1a", "-policy", "modified",
			"-faults", "seed=7,drop=0.08,dup=0.05,delay=0.2,maxdelay=9,reset=0-1@50+40,horizon=600"}, sim...),
			[]string{"quiesced=true", "faults:", "exit status 0"}, ""},
		{"fig3-faults", append([]string{"-figure", "3", "-policy", "modified",
			"-faults", "seed=3,drop=0.1,delay=0.3,maxdelay=12,horizon=500"}, sim...),
			[]string{"quiesced=true", "faults:", "exit status 0"}, ""},
		{"fig13-faults", append([]string{"-figure", "13", "-policy", "modified",
			"-faults", "seed=5,drop=0.05,dup=0.05,delay=0.2,maxdelay=10,horizon=800"}, sim...),
			[]string{"quiesced=true", "faults:", "exit status 0"}, ""},
		// Figure 1(a) under classic I-BGP oscillates forever: the event
		// budget runs out and the command exits 2.
		{"fig1a-classic", append([]string{"-figure", "1a", "-policy", "classic", "-max-steps", "120"}, sim...),
			[]string{"quiesced=false", "exit status 2"}, ""},
		// Out-of-range numbers and unknown names are usage errors (exit 2,
		// nothing on stdout, stderr naming the flag and its bound or
		// names), never silently replaced by a default or by zero, and
		// checked on every substrate.
		{"max-steps-negative", []string{"-figure", "1a", "-max-steps", "-3"}, nil, "flag -max-steps: must be at least 1"},
		{"max-steps-zero", []string{"-figure", "1a", "-max-steps", "0"}, nil, "flag -max-steps: must be at least 1"},
		{"delay-negative", append([]string{"-figure", "1a", "-delay", "-4"}, sim...), nil, "flag -delay: must be at least 0"},
		{"jitter-negative", append([]string{"-figure", "1a", "-jitter", "-4"}, sim...), nil, "flag -jitter: must be at least 0"},
		{"mrai-negative", append([]string{"-figure", "1a", "-mrai", "-4"}, sim...), nil, "flag -mrai: must be at least 0"},
		{"schedule-unknown", []string{"-figure", "1a", "-schedule", "bogus", "-substrate", "sim"}, nil,
			"flag -schedule: must be one of allatonce, random, roundrobin or subsets"},
		{"policy-unknown", []string{"-figure", "1a", "-policy", "bogus"}, nil,
			"flag -policy: must be one of adaptive, classic, modified or walton"},
		{"wait-zero", []string{"-figure", "1a", "-wait", "0", "-substrate", "tcp"}, nil, "flag -wait: must be at least 1ns"},
		// A flag the chosen substrate does not read is a usage error too.
		{"model-delay", []string{"-figure", "1a", "-delay", "7"}, nil,
			"flag -delay is not read by -substrate model, only by -substrate sim"},
		{"model-faults", []string{"-figure", "1a", "-faults", "seed=1,drop=0.1"}, nil,
			"flag -faults is not read by -substrate model, only by -substrate sim or tcp"},
		{"sim-seed", []string{"-figure", "1a", "-substrate", "sim", "-seed", "5"}, nil,
			"flag -seed is not read by -substrate sim unless -jitter is above 0"},
		{"model-seed-roundrobin", []string{"-figure", "1a", "-schedule", "roundrobin", "-seed", "5"}, nil,
			"flag -seed is not read by -substrate model unless -schedule is random or subsets"},
		{"tcp-max-steps", []string{"-figure", "1a", "-substrate", "tcp", "-max-steps", "3"}, nil,
			"flag -max-steps is not read by -substrate tcp, only by -substrate model or sim"},
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
