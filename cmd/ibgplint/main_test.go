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
// against testdata/<name>.golden; -update rewrites the files. A flag that
// only -gen reads, set without -gen, is a usage error (exit 2, nothing on
// stdout, stderr naming both flags), never a silent no-op.
func TestGolden(t *testing.T) {
	type goldenCase struct {
		name   string
		args   []string
		want   []string // facts the golden output must state
		stderr string   // for a usage error: what stderr must state
	}
	genOut := filepath.Join(t.TempDir(), "gen.json")
	cases := []goldenCase{
		// The 1012-router default topology under the exact prover: every
		// route metric of the CNF and of the witness replay is in the JSON.
		{"prove-json-default-1", []string{"-prove", "-json", "-gen", "default", "-seed", "1"}, []string{
			`"source": "topogen(seed=1,n=1012)"`, `"pass": "prove-stable"`, "a stable routing exists", "exit status 0",
		}, ""},
		// Every paper figure: Figures 1(a) and 13 have no stable routing,
		// Figure 2 has two.
		{"prove-figures", []string{"-prove", "-v", "-figure", "all"}, []string{
			"RISK  fig1a", "RISK  fig13", "no stable routing exists", "two distinct stable routings exist", "exit status 0",
		}, ""},
		// A three-prefix generated topology: one report per prefix.
		{"gen-prefixes-3", []string{"-v", "-gen",
			"regions=1,rrs=1,pops=3,poprrs=1,clients=1,ases=2,exits=4,maxmed=2,corecost=20,accesscost=6,prefixes=3",
			"-seed", "1"}, []string{"topogen(seed=1,n=7) prefix 0", "topogen(seed=1,n=7) prefix 2", "exit status 0"}, ""},
		{"seed-without-gen", []string{"-figure", "1a", "-seed", "9"}, nil, "flag -seed is read only with -gen"},
		{"gen-out-without-gen", []string{"-figure", "1a", "-gen-out", genOut}, nil, "flag -gen-out is read only with -gen"},
	}
	// The verbose report of every bundled topology, one golden per file.
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "topologies", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("bundled topologies: %v, %d files", err, len(paths))
	}
	for _, path := range paths {
		name := "topology-" + strings.TrimSuffix(filepath.Base(path), ".json")
		cases = append(cases, goldenCase{name, []string{"-v", path}, []string{"exit status 0"}, ""})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, stderr := runMain(t, tc.args)
			if tc.stderr != "" && (got != "exit status 2\n" || !strings.Contains(stderr, tc.stderr)) {
				t.Errorf("usage error: got %q and stderr\n%s\nwant exit status 2, no stdout and %q", got, stderr, tc.stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("output lacks %q:\n%s", w, got)
				}
			}
			golden(t, tc.name, got)
		})
	}
	if _, err := os.Stat(genOut); !os.IsNotExist(err) {
		t.Errorf("-gen-out without -gen wrote %s (stat: %v)", genOut, err)
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
