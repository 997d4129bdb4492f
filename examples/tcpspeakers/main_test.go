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
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden testdata file")

// TestMain doubles as the example: with RUN_MAIN set the test binary runs
// main, so the golden test drives the real program and its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// updateCount matches the one timing-dependent figure of the output: how
// many UPDATEs the speakers exchanged before quiescing depends on how the
// scheduler interleaves them.
var updateCount = regexp.MustCompile(`after [0-9]+ UPDATE messages`)

// TestGolden pins both policies' settled best routes and packet traces on
// real loopback TCP speakers: Classic loops between the two clients and
// Modified exits. -update rewrites testdata/output.golden.
func TestGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RUN_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	got := fmt.Sprintf("%sexit status %d\n", updateCount.ReplaceAllString(stdout.String(), "after N UPDATE messages"), code)

	path := filepath.Join("testdata", "output.golden")
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
