package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// e19Upgraded matches E19's count of upgraded routers on the oscillating
// prefix. E19 runs TCP speakers, and which routers cross the adaptive
// threshold first depends on socket timing, so the count is masked; every
// other experiment is a pure function of its seeds.
var e19Upgraded = regexp.MustCompile(`oscillating prefix: \d+/`)

// TestGolden checks stdout and the exit status of the default battery and
// its -markdown rendering against testdata/<name>.golden; -update rewrites
// the files.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // facts the golden output must state
	}{
		{"default", nil, []string{"[PASS] E1 ", "all 23 experiments passed", "exit status 0"}},
		{"markdown", []string{"-markdown"}, []string{"| E1 |", "| E23 |", "exit status 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := e19Upgraded.ReplaceAllString(runMain(t, tc.args), "oscillating prefix: N/")
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
