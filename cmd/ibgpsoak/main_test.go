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

// TestGolden pins the deterministic simulator soak aggregate — event
// counts, checked rounds and the rolling state hash — and the exit status,
// once fault-free and once under a drop/delay plan; and each out-of-range
// flag value or flag the run does not read, which is a usage error (exit
// 2, nothing on stdout, stderr naming the flag and its bound or reader)
// rather than a default. -update rewrites testdata/<name>.golden.
func TestGolden(t *testing.T) {
	soak := []string{"-spec", "small", "-seed", "1", "-duration", "4s", "-substrate", "sim", "-agg"}
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // for a bad flag value: what stderr must state
	}{
		{"small-sim", soak, ""},
		{"small-sim-faults", append([]string{"-faults", "seed=7,drop=0.05,delay=0.2,maxdelay=30,horizon=600"}, soak...), ""},
		{"mrai-negative", append([]string{"-mrai", "-5"}, soak...), "flag -mrai: must be at least 0"},
		{"rate-negative", append([]string{"-churn", "rate=-3"}, soak...), "churn: Rate = -3, need a positive finite event rate"},
		{"rate-nan", append([]string{"-churn", "rate=NaN"}, soak...), `bad -churn value for "rate": "NaN" is not a finite number`},
		{"duration-negative", append([]string{"-duration", "-1s"}, soak...), "flag -duration: must be at least 1ns"},
		{"stats-every-zero", append([]string{"-stats-every", "0"}, soak...), "flag -stats-every: must be at least 1ns"},
		// A flag the run does not read is a usage error too, named with the
		// flag that would read it.
		{"sim-codec", append([]string{"-codec", "bgp4"}, soak...),
			"flag -codec is not read by -substrate sim, only by -substrate both or tcp"},
		{"stats-every-without-listen", append([]string{"-stats-every", "1s"}, soak...),
			"flag -stats-every is read only with -listen"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, stderr := runMain(t, tc.args)
			switch {
			case tc.stderr == "" && !strings.HasSuffix(got, "exit status 0\n"):
				t.Errorf("soak failed:\n%s", got)
			case tc.stderr != "" && (got != "exit status 2\n" || !strings.Contains(stderr, tc.stderr)):
				t.Errorf("bad flag value: got %q and stderr\n%s\nwant exit status 2, no stdout and %q", got, stderr, tc.stderr)
			}
			golden(t, tc.name, got)
		})
	}
}

// msgsPerSec matches the one wall-clock figure on a sim soak's stderr.
var msgsPerSec = regexp.MustCompile(`[0-9]+ msgs/sec`)

// TestGoldenClassic pins two Classic soaks, stderr included with the
// msgs/sec figure masked. Classic may have several stable solutions, and
// every settled round must be one of them: Figure 3 seed 5 settles in one
// every round, which is no violation. Figure 1(a) has none, so its warm-up
// fails the soak's own quiescence check.
func TestGoldenClassic(t *testing.T) {
	for _, tc := range []struct{ name, figure, seed string }{
		{"fig3-classic", "3", "5"},
		{"fig1a-classic", "1a", "1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, stderr := runMain(t, []string{"-figure", tc.figure, "-policy", "classic", "-seed", tc.seed,
				"-duration", "4s", "-substrate", "sim", "-agg"})
			golden(t, tc.name, msgsPerSec.ReplaceAllString(stderr, "N msgs/sec")+got)
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
