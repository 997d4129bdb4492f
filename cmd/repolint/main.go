// Command repolint is this repository's own correctness linter. It runs
// nine purely syntactic go/ast checks that encode invariants the paper
// reproduction depends on:
//
//   - exhaustive-switch: a switch over one of the behaviour-steering enums
//     (protocol.Policy, explore.SuccessorMode, protocol.Outcome) must
//     either cover every member or carry a default clause. A silently
//     unhandled Policy means one policy runs another's logic.
//
//   - map-range: inside internal/protocol, internal/explore and
//     internal/selection, ranging over a Go map is banned — iteration
//     order is nondeterministic and those packages' results are asserted
//     to be bit-identical across runs (Lemma 7.4 uniqueness, the
//     experiment tables). Sort the keys, or use clear().
//
//   - pathset-mutation: calling Add/Remove/Union on a bgp.PathSet
//     received by value mutates the caller's bitset through the shared
//     backing array. Take *PathSet, or Clone() first.
//
//   - global-rand: inside internal/..., calling a top-level math/rand
//     function (rand.Intn, rand.Float64, rand.Shuffle, ...) is banned —
//     those draw from the process-global source, so generated systems and
//     census aggregates stop being pure functions of their seed. Build an
//     explicit source with rand.New(rand.NewSource(seed)) instead (the
//     constructors New, NewSource and NewZipf remain allowed).
//
//   - hotkey: inside internal/protocol and internal/explore (non-test
//     files), fmt.Sprintf and fmt.Fprintf are banned outside String
//     methods. Formatted strings in those packages are almost always state
//     keys, and string state keys are exactly the per-state allocation the
//     interned binary arena (Engine.EncodeState + protocol.Arena)
//     replaced. fmt.Errorf and the Print family stay allowed.
//
//   - empty-interface: the pre-generics spelling interface{} is banned
//     repo-wide in favour of any (Go 1.18+).
//
//   - pass-coverage: every lint pass registered in internal/lint must be
//     named in that package's tests.
//
//   - speaker-timer: in non-test files of internal/speaker,
//     time.AfterFunc and timers.Add may appear only inside the helper
//     named after — every wall-clock timer takes and releases its slot in
//     the quiescence gauge on one path.
//
//   - deadexport: an exported function or method in a non-test file under
//     internal/ whose name no non-test file of the module references — no
//     package, command or benchmark; a test alone does not count — is
//     surface no shipped code reaches, and fails: delete it, or unexport
//     it so same-package tests still reach it. Methods with standard
//     interface names (String, Error, MarshalJSON, Len/Less/Swap/Push/Pop,
//     ...) are exempt. Runs only when the module root is among the linted
//     directories (repolint ./...).
//
// Usage:
//
//	repolint ./...        # lint the whole module
//	repolint ./internal/protocol ./cmd/ibgpsim
//
// Findings print as "file:line: [check] message"; the exit status is 1 if
// any finding is reported, 2 on usage or parse errors.
package main

import (
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: repolint ./... | dir ...")
		os.Exit(2)
	}
	dirs, err := expandPatterns(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	findings, err := Analyze(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
