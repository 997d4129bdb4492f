package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a fake module in a temp dir: path -> source.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, src := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func analyzeTree(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	root := writeTree(t, files)
	dirs, err := expandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Analyze(dirs)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func hasFinding(findings []Finding, check, msgPart string) bool {
	for _, f := range findings {
		if f.Check == check && strings.Contains(f.Msg, msgPart) {
			return true
		}
	}
	return false
}

const enumDecl = `package protocol

type Policy int

const (
	Classic Policy = iota
	Walton
	Modified
	Adaptive
)
`

// TestSeededNonExhaustiveSwitch proves the analyzer catches a switch over
// Policy that covers some members, misses others, and has no default —
// both in the declaring package (bare names) and from another package
// (qualified names).
func TestSeededNonExhaustiveSwitch(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/protocol/enum.go": enumDecl,
		"internal/protocol/use.go": `package protocol

func describe(p Policy) string {
	switch p {
	case Classic:
		return "classic"
	case Walton:
		return "walton"
	}
	return ""
}
`,
		"cmd/tool/main.go": `package main

import "example/internal/protocol"

func pick(p protocol.Policy) int {
	switch p {
	case protocol.Classic:
		return 1
	case protocol.Modified:
		return 2
	}
	return 0
}
`,
	})
	if !hasFinding(findings, "exhaustive-switch", "missing cases Modified, Adaptive") {
		t.Errorf("same-package non-exhaustive switch not flagged; findings: %v", findings)
	}
	if !hasFinding(findings, "exhaustive-switch", "missing cases Walton, Adaptive") {
		t.Errorf("cross-package non-exhaustive switch not flagged; findings: %v", findings)
	}
}

// TestExhaustiveOrDefaultedSwitchesPass proves full coverage and default
// clauses both silence the check, and that switches over untracked values
// are ignored.
func TestExhaustiveOrDefaultedSwitchesPass(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/protocol/enum.go": enumDecl,
		"internal/protocol/ok.go": `package protocol

func full(p Policy) int {
	switch p {
	case Classic:
		return 0
	case Walton:
		return 1
	case Modified:
		return 2
	case Adaptive:
		return 3
	}
	return -1
}

func defaulted(p Policy) int {
	switch p {
	case Classic:
		return 0
	default:
		return -1
	}
}

func untracked(s string) int {
	switch s {
	case "a":
		return 0
	case "b":
		return 1
	}
	return -1
}
`,
	})
	for _, f := range findings {
		if f.Check == "exhaustive-switch" {
			t.Errorf("unexpected finding: %v", f)
		}
	}
}

// TestSeededMapRange proves map iteration is flagged inside a
// determinism-critical package — for parameters, make(), literals and var
// declarations — and NOT flagged in other packages or for slices.
func TestSeededMapRange(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/protocol/walk.go": `package protocol

func walkParam(m map[string]int) (sum int) {
	for _, v := range m {
		sum += v
	}
	return
}

func walkLocal() []string {
	seen := make(map[string]bool)
	seen["x"] = true
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	return out
}

func walkSlice(xs []int) (sum int) {
	for _, v := range xs {
		sum += v
	}
	return
}
`,
		"internal/report/fine.go": `package report

func walk(m map[string]int) (sum int) {
	for _, v := range m {
		sum += v
	}
	return
}
`,
	})
	if !hasFinding(findings, "map-range", "map m") {
		t.Errorf("map-range over parameter not flagged; findings: %v", findings)
	}
	if !hasFinding(findings, "map-range", "map seen") {
		t.Errorf("map-range over make()d local not flagged; findings: %v", findings)
	}
	for _, f := range findings {
		if f.Check == "map-range" && strings.Contains(f.Pos.Filename, "fine.go") {
			t.Errorf("map-range flagged outside the determinism-critical packages: %v", f)
		}
		if f.Check == "map-range" && strings.Contains(f.Msg, "xs") {
			t.Errorf("slice range misflagged as map range: %v", f)
		}
	}
}

// TestSeededPathSetMutation proves mutating a by-value PathSet parameter is
// flagged while pointer receivers and read-only calls are not.
func TestSeededPathSetMutation(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/bgp/bgp.go": `package bgp

type PathSet struct{ words []uint64 }

func (s *PathSet) Add(i int)          {}
func (s *PathSet) Remove(i int)       {}
func (s *PathSet) Union(o PathSet)    {}
func (s PathSet) Contains(i int) bool { return false }
`,
		"internal/rib/rib.go": `package rib

import "example/internal/bgp"

func drop(set bgp.PathSet, i int) {
	set.Remove(i)
}

func peek(set bgp.PathSet, i int) bool {
	return set.Contains(i)
}

func viaPointer(set *bgp.PathSet, i int) {
	set.Add(i)
}
`,
	})
	if !hasFinding(findings, "pathset-mutation", "set.Remove") {
		t.Errorf("by-value PathSet mutation not flagged; findings: %v", findings)
	}
	for _, f := range findings {
		if f.Check != "pathset-mutation" {
			continue
		}
		if strings.Contains(f.Msg, "Contains") || strings.Contains(f.Msg, "viaPointer") {
			t.Errorf("false positive: %v", f)
		}
	}
	// Union on *PathSet receiver body is fine; make sure only the one
	// by-value site fired.
	count := 0
	for _, f := range findings {
		if f.Check == "pathset-mutation" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("want exactly 1 pathset-mutation finding, got %d: %v", count, findings)
	}
}

// TestSeededHotKey proves fmt.Sprintf/Fprintf are flagged in the hot-path
// packages (internal/protocol, internal/explore) — including under an
// import alias — while String methods, fmt.Errorf, test files and other
// packages stay clean.
func TestSeededHotKey(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/protocol/key.go": `package protocol

import "fmt"

type Engine struct{ n int }

func (e *Engine) StateKey() string {
	return fmt.Sprintf("%d", e.n)
}

func (e *Engine) String() string {
	return fmt.Sprintf("engine(%d)", e.n)
}

func (e *Engine) check() error {
	return fmt.Errorf("bad engine %d", e.n)
}
`,
		"internal/explore/key.go": `package explore

import (
	"strings"

	f "fmt"
)

func key(xs []int) string {
	var b strings.Builder
	for _, x := range xs {
		f.Fprintf(&b, "%d;", x)
	}
	return b.String()
}
`,
		"internal/explore/key_test.go": `package explore

import "fmt"

func testKey(x int) string {
	return fmt.Sprintf("%d", x)
}
`,
		"internal/trace/render.go": `package trace

import "fmt"

func render(x int) string {
	return fmt.Sprintf("%d", x)
}
`,
	})
	if !hasFinding(findings, "hotkey", "fmt.Sprintf") {
		t.Errorf("Sprintf key in internal/protocol not flagged; findings: %v", findings)
	}
	if !hasFinding(findings, "hotkey", "f.Fprintf") {
		t.Errorf("aliased Fprintf key in internal/explore not flagged; findings: %v", findings)
	}
	for _, f := range findings {
		if f.Check != "hotkey" {
			continue
		}
		if strings.Contains(f.Pos.Filename, "_test.go") {
			t.Errorf("hotkey flagged in a test file: %v", f)
		}
		if strings.Contains(f.Pos.Filename, "render.go") {
			t.Errorf("hotkey flagged outside the hot-path packages: %v", f)
		}
	}
	// Exactly the two genuine key constructions: the String method and
	// Errorf must not fire.
	count := 0
	for _, f := range findings {
		if f.Check == "hotkey" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("want exactly 2 hotkey findings, got %d: %v", count, findings)
	}
}

// TestSeededSpeakerTimer proves a timer armed, or the timers gauge moved,
// outside the after helper is flagged in internal/speaker — and that the
// helper itself, test files, other packages and other Add calls are not.
func TestSeededSpeakerTimer(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/speaker/speaker.go": `package speaker

import (
	"sync/atomic"
	"time"
)

type Network struct {
	timers atomic.Int64
	sent   atomic.Int64
}

func (n *Network) after(d time.Duration, body func()) {
	n.timers.Add(1)
	time.AfterFunc(d, func() {
		body()
		n.timers.Add(-1)
	})
}

func (n *Network) retry() {
	n.sent.Add(1)
	n.after(time.Second, func() {})
}

func (n *Network) rogueRetry() {
	n.timers.Add(1)
	time.AfterFunc(time.Second, func() { n.timers.Add(-1) })
}
`,
		"internal/speaker/speaker_test.go": `package speaker

import "time"

func arm(n *Network) { time.AfterFunc(time.Second, func() { n.timers.Add(1) }) }
`,
		"internal/churn/soak.go": `package churn

import "time"

func later(f func()) { time.AfterFunc(time.Second, f) }
`,
	})
	count := 0
	for _, f := range findings {
		if f.Check != "speaker-timer" {
			continue
		}
		count++
		if !strings.Contains(f.Msg, "rogueRetry") || !strings.HasSuffix(f.Pos.Filename, "internal/speaker/speaker.go") {
			t.Errorf("speaker-timer flagged outside the seeded offender: %v", f)
		}
	}
	if !hasFinding(findings, "speaker-timer", "time.AfterFunc") || !hasFinding(findings, "speaker-timer", "timers.Add") {
		t.Errorf("rogue timer or gauge move not flagged; findings: %v", findings)
	}
	// One AfterFunc and two gauge moves in rogueRetry, nothing else.
	if count != 3 {
		t.Errorf("want exactly 3 speaker-timer findings, got %d: %v", count, findings)
	}
}

// TestSeededEmptyInterface proves interface{} is flagged repo-wide — in
// parameters, results and composite types — while any and non-empty
// interfaces are not.
func TestSeededEmptyInterface(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/heap/heap.go": `package heap

type queue []any

func (q *queue) Push(x interface{}) { *q = append(*q, x) }

func (q *queue) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

func modern(args ...any) []any { return args }

type Stringer interface {
	String() string
}
`,
		"cmd/tool/main.go": `package main

func main() {
	var boxes []map[string]interface{}
	_ = boxes
}
`,
	})
	count := 0
	for _, f := range findings {
		if f.Check == "empty-interface" {
			count++
		}
	}
	if count != 3 {
		t.Errorf("want exactly 3 empty-interface findings (Push, Pop, main), got %d: %v", count, findings)
	}
	for _, f := range findings {
		if f.Check == "empty-interface" && strings.Contains(f.Msg, "Stringer") {
			t.Errorf("non-empty interface misflagged: %v", f)
		}
	}
}

// TestRepoIsClean runs the analyzer over the actual repository — the same
// invocation CI uses — and requires zero findings.
func TestRepoIsClean(t *testing.T) {
	dirs, err := expandPatterns([]string{filepath.Join("..", "..") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Analyze(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%v", f)
	}
}

// TestSeededGlobalRand proves top-level math/rand calls are flagged inside
// internal packages — including under an import alias — while explicitly
// seeded sources, constructor calls, shadowing locals and non-internal
// packages stay clean.
func TestSeededGlobalRand(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/foo/foo.go": `package foo

import "math/rand"

func draw() int {
	return rand.Intn(10)
}

func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}
`,
		"internal/bar/bar.go": `package bar

import mrand "math/rand"

func shuffle(xs []int) {
	mrand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
`,
		"internal/baz/baz.go": `package baz

import "math/rand"

type fake struct{}

func (fake) Intn(n int) int { return 0 }

func local(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	var rand fake
	_ = rng
	return rand.Intn(3)
}
`,
		"cmd/tool/main.go": `package main

import "math/rand"

func main() {
	_ = rand.Intn(10)
}
`,
	})
	if !hasFinding(findings, "global-rand", "rand.Intn") {
		t.Errorf("global rand.Intn in internal package not flagged; findings: %v", findings)
	}
	if !hasFinding(findings, "global-rand", "mrand.Shuffle") {
		t.Errorf("aliased global rand call not flagged; findings: %v", findings)
	}
	for _, f := range findings {
		if f.Check != "global-rand" {
			continue
		}
		if strings.Contains(f.Pos.Filename, "main.go") {
			t.Errorf("global-rand flagged outside internal/: %v", f)
		}
		if strings.Contains(f.Pos.Filename, "baz.go") {
			t.Errorf("shadowing local misflagged as global rand: %v", f)
		}
	}
	// Constructor calls (rand.New, rand.NewSource) and seeded-source draws
	// must not fire: exactly the two genuine global draws above.
	count := 0
	for _, f := range findings {
		if f.Check == "global-rand" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("want exactly 2 global-rand findings, got %d: %v", count, findings)
	}
}

// TestSeededDeadExport proves the deadexport check flags an exported
// function and an exported method under internal/ that no non-test file
// names — including names only a test of the same or another package
// references — and leaves alone: names another package or an interface
// references, the fixed interface-method names, unexported and test-file
// declarations, and packages outside internal/. Without the module root in
// the parsed set the check stays off, since the references would be
// incomplete.
func TestSeededDeadExport(t *testing.T) {
	tree := map[string]string{
		"go.mod": "module repro\n",
		"internal/foo/foo.go": `package foo

type T struct{}

func Orphan() {}

func (T) OrphanMethod() {}

func UsedElsewhere() {}

func UsedByTest() {}

func UsedByOtherTest() {}

func (T) Tick() {}

func (T) String() string { return "" }

func (T) Len() int { return 0 }

func unexported() {}
`,
		"internal/foo/foo_test.go": `package foo

func TestOnly() { UsedByTest() }

func HelperNobodyCalls() {}
`,
		"internal/bar/bar.go": `package bar

import "repro/internal/foo"

type ticker interface{ Tick() }

var _ = foo.UsedElsewhere
`,
		"internal/bar/bar_test.go": `package bar_test

import "repro/internal/foo"

var _ = foo.UsedByOtherTest
`,
		"cmd/tool/main.go": `package main

func ExportedInMain() {}

func main() {}
`,
	}
	findings := analyzeTree(t, tree)
	for _, want := range []string{"Orphan ", "OrphanMethod ", "UsedByTest ", "UsedByOtherTest "} {
		if !hasFinding(findings, "deadexport", "exported "+want) {
			t.Errorf("unreferenced %snot flagged; findings: %v", want, findings)
		}
	}
	count := 0
	for _, f := range findings {
		if f.Check == "deadexport" {
			count++
		}
	}
	if count != 4 {
		t.Errorf("want exactly 4 deadexport findings, got %d: %v", count, findings)
	}

	delete(tree, "go.mod")
	for _, f := range analyzeTree(t, tree) {
		if f.Check == "deadexport" {
			t.Errorf("deadexport ran without the module root parsed: %v", f)
		}
	}
}

// TestSeededPassCoverage proves the pass-coverage check fires for a lint
// pass registered in non-test code but never named in the package's own
// tests, stays quiet for covered passes (including names embedded inside
// longer test strings), and ignores Pass literals outside the registry
// packages.
func TestSeededPassCoverage(t *testing.T) {
	findings := analyzeTree(t, map[string]string{
		"internal/lint/lint.go": `package lint

type Pass struct {
	Name string
	Doc  string
}

func passes() []Pass {
	return []Pass{
		{Name: "covered-pass", Doc: "named directly in a test"},
		{Name: "embedded-pass", Doc: "named inside a longer test string"},
		{Name: "orphan-pass", Doc: "never mentioned by any test"},
	}
}
`,
		"internal/lint/lint_test.go": `package lint

import "testing"

func TestVerdicts(t *testing.T) {
	want := "covered-pass"
	msg := "expected an embedded-pass finding here"
	_, _ = want, msg
}
`,
		"internal/other/other.go": `package other

type Pass struct{ Name string }

var p = Pass{Name: "unregistered-package-pass"}
`,
	})
	if !hasFinding(findings, "pass-coverage", `"orphan-pass"`) {
		t.Errorf("untested lint pass not flagged; findings: %v", findings)
	}
	for _, f := range findings {
		if f.Check != "pass-coverage" {
			continue
		}
		for _, ok := range []string{"covered-pass", "embedded-pass", "unregistered-package-pass"} {
			if strings.Contains(f.Msg, ok) {
				t.Errorf("pass-coverage misfired on %s: %v", ok, f)
			}
		}
	}
}
