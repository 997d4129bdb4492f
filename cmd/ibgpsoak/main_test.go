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

// TestGolden pins the deterministic simulator soak aggregate — event
// counts, checked rounds and the rolling state hash — and the exit status,
// once fault-free and once under a drop/delay plan. -update rewrites
// testdata/<name>.golden.
func TestGolden(t *testing.T) {
	soak := []string{"-spec", "small", "-seed", "1", "-duration", "4s", "-substrate", "sim", "-agg"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"small-sim", soak},
		{"small-sim-faults", append([]string{"-faults", "seed=7,drop=0.05,delay=0.2,maxdelay=30,horizon=600"}, soak...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runMain(t, tc.args)
			if !strings.HasSuffix(got, "exit status 0\n") {
				t.Errorf("soak failed:\n%s", got)
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
