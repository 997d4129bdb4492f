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

// TestGolden checks stdout and the exit status of deterministic runs
// against testdata/<name>.golden; -update rewrites the files.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // facts the golden output must state
	}{
		// Figure 1(a): no reachable fixed point under classic I-BGP, so exit
		// 3 with a round-robin witness cycle.
		{"figure-1a", []string{"-figure", "1a"}, []string{
			"classic  reachable states=42", "PERSISTENT OSCILLATION", "witness cycle", "exit status 3",
		}},
		// A state budget below 1 is a usage error, not the search default.
		{"max-states-negative", []string{"-figure", "1a", "-max-states", "-5"}, []string{"exit status 2"}},
		{"max-states-zero", []string{"-figure", "1a", "-max-states", "0"}, []string{"exit status 2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runMain(t, tc.args)
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
// "exit status N" line.
func runMain(t *testing.T, args []string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return fmt.Sprintf("%sexit status %d\n", stdout.String(), code)
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
