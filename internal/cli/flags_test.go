package cli

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
)

// newFlagSet returns a flag set that reports errors instead of exiting.
func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// newCommandLine replaces flag.CommandLine, where the helpers register,
// with a fresh newFlagSet until the test ends.
func newCommandLine(t *testing.T) *flag.FlagSet {
	saved := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = saved })
	flag.CommandLine = newFlagSet()
	return flag.CommandLine
}

// TestNumberBounds: the value just below the bound is rejected with an
// error naming the bound, the value at the bound is accepted, and a
// rejected value leaves the flag as it was.
func TestNumberBounds(t *testing.T) {
	fs := newCommandLine(t)
	i := Int("max-states", 4000, 0, "")
	i64 := Int64("seeds", 5, 1, "")
	f := Float64("rate", 2.5, 0, "")
	d := Duration("wait", time.Second, time.Nanosecond, "")
	seed := Int64("seed", 1, math.MinInt64, "")
	for _, tc := range []struct{ flag, below, bound, want string }{
		{"max-states", "-1", "0", "must be at least 0"},
		{"seeds", "0", "1", "must be at least 1"},
		{"rate", "-0.001", "0", "must be at least 0"},
		{"wait", "0s", "1ns", "must be at least 1ns"},
	} {
		before := fs.Lookup(tc.flag).Value.String()
		err := fs.Parse([]string{"-" + tc.flag, tc.below})
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "-"+tc.flag) {
			t.Errorf("-%s %s: error %v, want one naming the flag and %q", tc.flag, tc.below, err, tc.want)
		}
		if got := fs.Lookup(tc.flag).Value.String(); got != before {
			t.Errorf("-%s %s: rejected value changed the flag from %s to %s", tc.flag, tc.below, before, got)
		}
		if err := fs.Parse([]string{"-" + tc.flag, tc.bound}); err != nil {
			t.Errorf("-%s %s (the bound): %v", tc.flag, tc.bound, err)
		}
	}
	if *i != 0 || *i64 != 1 || *f != 0 || *d != time.Nanosecond {
		t.Errorf("values at the bounds: %d %d %v %v", *i, *i64, *f, *d)
	}
	if err := fs.Parse([]string{"-seed", "-9223372036854775808"}); err != nil || *seed != math.MinInt64 {
		t.Errorf("-seed MinInt64: %d, %v", *seed, err)
	}
}

// TestFloatRejectsNonFinite: strconv.ParseFloat accepts NaN and ±Inf, and
// +Inf passes any lower bound, so the float form rejects all three.
func TestFloatRejectsNonFinite(t *testing.T) {
	fs := newCommandLine(t)
	f := Float64("rate", 0, 0, "")
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf"} {
		err := fs.Parse([]string{"-rate", v})
		if err == nil || !strings.Contains(err.Error(), "not a finite number") {
			t.Errorf("-rate %s: %v", v, err)
		}
	}
	if *f != 0 {
		t.Errorf("-rate = %v after rejections", *f)
	}
}

// TestNumberParsesLikeStdlib: every in-range value parses to exactly what
// the standard library's flag of the same type gives, in every syntax it
// accepts (hex, octal, underscores, exponents, compound durations).
func TestNumberParsesLikeStdlib(t *testing.T) {
	for _, v := range []string{"7", "0x10", "0o17", "017", "1_000", "+3"} {
		std, ours := newFlagSet(), newCommandLine(t)
		wi, wi64 := std.Int("i", 0, ""), std.Int64("j", 0, "")
		gi, gi64 := Int("i", 0, 0, ""), Int64("j", 0, 0, "")
		args := []string{"-i", v, "-j", v}
		if err := std.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := ours.Parse(args); err != nil || *gi != *wi || *gi64 != *wi64 {
			t.Errorf("%q: got %d %d (%v), stdlib %d %d", v, *gi, *gi64, err, *wi, *wi64)
		}
	}
	for _, v := range []string{"2.5", "1e3", "0x1p-2", "40"} {
		std, ours := newFlagSet(), newCommandLine(t)
		want, got := std.Float64("f", 0, ""), Float64("f", 0, 0, "")
		if err := std.Parse([]string{"-f", v}); err != nil {
			t.Fatal(err)
		}
		if err := ours.Parse([]string{"-f", v}); err != nil || *got != *want {
			t.Errorf("%q: got %v (%v), stdlib %v", v, *got, err, *want)
		}
	}
	for _, v := range []string{"1s", "1h2m3.5s", "250ms", "0"} {
		std, ours := newFlagSet(), newCommandLine(t)
		want, got := std.Duration("d", 0, ""), Duration("d", 0, 0, "")
		if err := std.Parse([]string{"-d", v}); err != nil {
			t.Fatal(err)
		}
		if err := ours.Parse([]string{"-d", v}); err != nil || *got != *want {
			t.Errorf("%q: got %v (%v), stdlib %v", v, *got, err, *want)
		}
	}
	for _, v := range []string{"abc", "1.5", "99999999999999999999"} {
		fs := newCommandLine(t)
		Int("i", 0, 0, "")
		if err := fs.Parse([]string{"-i", v}); err == nil {
			t.Errorf("-i %q accepted", v)
		}
	}
}

// TestZeroValueString: flag calls String on a zero Value of each flag's
// type to decide whether to print a default, so a zero Value must not
// dereference its nil pointer, and -h must state every flag's range.
func TestZeroValueString(t *testing.T) {
	if got := new(bounded[int]).String(); got != "0" {
		t.Errorf("zero int String() = %q", got)
	}
	if got := new(bounded[time.Duration]).String(); got != "0s" {
		t.Errorf("zero duration String() = %q", got)
	}
	if got := new(choice[protocol.Policy]).String(); got != "" {
		t.Errorf("zero choice String() = %q", got)
	}
	fs := newCommandLine(t)
	Int("max-states", 4000, 0, "state budget")
	Int64("seed", 1, math.MinInt64, "run seed")
	Float64("rate", 0, 0, "event rate")
	Duration("wait", time.Second, time.Nanosecond, "wait bound")
	Choice("policy", "classic", "advertisement policy", Policies)
	var out bytes.Buffer
	fs.SetOutput(&out)
	fs.PrintDefaults()
	help := out.String()
	for _, want := range []string{
		"-max-states int\n", "state budget (int, at least 0) (default 4000)",
		"-seed int\n", "run seed (int, any value) (default 1)",
		"-rate float\n", "event rate (float, at least 0)\n",
		"-wait duration\n", "wait bound (duration, at least 1ns) (default 1s)",
		"advertisement policy (adaptive, classic, modified or walton) (default classic)",
	} {
		if !strings.Contains(help, want) {
			t.Errorf("-h lacks %q:\n%s", want, help)
		}
	}
	if strings.Contains(help, "panic") {
		t.Errorf("-h reports a panic:\n%s", help)
	}
}

// choose sets a choice over names to s.
func choose[T any](names map[string]T, s string) (T, error) {
	c := &choice[T]{p: new(T), names: names}
	err := c.Set(s)
	return *c.p, err
}

func TestParsePolicy(t *testing.T) {
	want := map[string]protocol.Policy{
		"classic": protocol.Classic, "walton": protocol.Walton,
		"modified": protocol.Modified, "adaptive": protocol.Adaptive,
	}
	for s, p := range want {
		if got, err := choose(Policies, s); err != nil || got != p {
			t.Fatalf("-policy %s = %v, %v", s, got, err)
		}
	}
	if _, err := choose(Policies, "bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestParseOptions(t *testing.T) {
	order, err1 := choose(Orders, "rfc")
	med, err2 := choose(MEDModes, "always")
	if err1 != nil || err2 != nil || order != selection.RFCOrder || med != selection.AlwaysCompare {
		t.Fatalf("rfc/always = %v %v, %v %v", order, med, err1, err2)
	}
	order, err1 = choose(Orders, "paper")
	med, err2 = choose(MEDModes, "standard")
	if err1 != nil || err2 != nil || (selection.Options{Order: order, MED: med}) != (selection.Options{}) {
		t.Fatalf("default names = %v %v, %v %v", order, med, err1, err2)
	}
	// The empty string is not a name: it no longer stands in for the default.
	for _, bad := range []string{"weird", ""} {
		if _, err := choose(Orders, bad); err == nil {
			t.Errorf("order %q accepted", bad)
		}
		if _, err := choose(MEDModes, bad); err == nil {
			t.Errorf("MED mode %q accepted", bad)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	for _, s := range []string{"roundrobin", "allatonce", "random", "subsets"} {
		build, err := choose(Schedules, s)
		if err != nil {
			t.Fatalf("schedule %q: %v", s, err)
		}
		if got := build(3, 1).Next(); len(got) == 0 {
			t.Fatalf("schedule %q produced empty set", s)
		}
	}
	for _, bad := range []string{"bogus", ""} {
		if _, err := choose(Schedules, bad); err == nil {
			t.Errorf("schedule %q accepted", bad)
		}
	}
}

func TestParseCodec(t *testing.T) {
	for _, name := range []string{"private", "bgp4"} {
		c, err := choose(Codecs, name)
		if err != nil || c.Name() != name {
			t.Fatalf("-codec %s = %v, %v", name, c, err)
		}
	}
	if _, err := choose(Codecs, ""); err == nil {
		t.Fatal("empty codec name accepted")
	}
	fs := newCommandLine(t)
	Choice("codec", "private", "wire format", Codecs)
	err := fs.Parse([]string{"-codec", "bgp5"})
	if err == nil || err.Error() != `invalid value "bgp5" for flag -codec: must be one of bgp4 or private` {
		t.Fatalf("unknown codec error = %v, want the name and the valid set", err)
	}
}

// TestScopes: a scoped flag set under a mode or gate that does not read it
// is reported with the flag, the chosen mode and the modes that read it;
// one that is read, or a flag no scope names, is not. The -h line of each
// scoped flag names its readers.
func TestScopes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "2", "-seeds", "3"}, ""},
		{[]string{"-job", "fuzz", "-plans", "2"}, ""},
		{[]string{"-job", "chaos", "-workers", "2", "-seeds", "3"},
			"flag -workers is not read by -job chaos, only by -job census or lint"},
		{[]string{"-job", "lint", "-plans", "2", "-workers", "2"},
			"flag -plans is not read by -job lint, only by -job chaos or fuzz"},
		{[]string{"-gen", "small", "-seed", "2"}, ""},
		{[]string{"-seed", "2"}, "flag -seed is read only with -gen"},
		{[]string{"-gen", "", "-seed", "2"}, "flag -seed is read only with -gen"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			fs := newCommandLine(t)
			Choice("job", "census", "job kind", map[string]bool{"census": true, "chaos": true, "fuzz": true, "lint": true})
			Int("seeds", 1, 1, "seeds")
			Int("workers", 1, 0, "workers")
			Int("plans", 1, 1, "plans")
			fs.String("gen", "", "generator")
			Int64("seed", 1, math.MinInt64, "seed")
			scopes := []Scope{
				Modes("job", map[string][]string{"census": {"workers"}, "lint": {"workers"}, "chaos": {"plans"}, "fuzz": {"plans"}}),
				Gate("gen", "seed"),
			}
			note(fs, scopes)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := unread(fs, scopes)
			if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
				t.Errorf("got %v, want %q", err, tc.want)
			}
			for f, want := range map[string]string{
				"workers": "(read only by -job census or lint)", "plans": "(read only by -job chaos or fuzz)",
				"seed": "(read only with -gen)", "seeds": "seeds (`int`, at least 1)",
			} {
				if u := fs.Lookup(f).Usage; !strings.HasSuffix(u, want) {
					t.Errorf("-%s -h line %q, want it to end in %q", f, u, want)
				}
			}
		})
	}
}

func TestTopogenFamily(t *testing.T) {
	small, err := TopogenFamily("small")
	if err != nil || small != topogen.Small() {
		t.Fatalf("small = %+v, %v", small, err)
	}
	for _, s := range []string{"", "default"} {
		if spec, err := TopogenFamily(s); err != nil || spec != topogen.Default() {
			t.Fatalf("%q = %+v, %v", s, spec, err)
		}
	}
	spec, err := TopogenFamily("pops=3,exits=4")
	want, _ := ParseTopogenSpec("pops=3,exits=4", topogen.Default())
	if err != nil || spec != want || spec.PoPs != 3 {
		t.Fatalf("override list = %+v, %v", spec, err)
	}
	if _, err := TopogenFamily("tiny"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// stdNumericFlags are the standard library's numeric flag constructors,
// which accept any value of their type.
var stdNumericFlags = map[string]bool{
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
	"Float64": true, "Float64Var": true, "Duration": true, "DurationVar": true,
}

// TestNoUnboundedNumericFlag guards the commands: a numeric flag must be
// registered through Int, Int64, Float64 or Duration here, which state its
// range, never through the standard library's constructors, which accept
// any value. It finds package-level calls (flag.Int) by the file's import
// of "flag", and FlagSet-method calls (fs.Int, flag.CommandLine.Int) by
// their arity: a receiver that is not an imported package, with the
// constructor's three arguments, or four for the *Var forms.
func TestNoUnboundedNumericFlag(t *testing.T) {
	files := 0
	err := filepath.WalkDir("../../cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		files++
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !stdNumericFlags[sel.Sel.Name] {
				return true
			}
			pkg := ""
			if id, ok := sel.X.(*ast.Ident); ok {
				pkg = imports[id.Name]
			}
			arity := 3
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arity = 4
			}
			if pkg == "flag" || (pkg == "" && len(call.Args) == arity) {
				t.Errorf("%s: unbounded numeric flag %s; register it with cli.Int, Int64, Float64 or Duration",
					fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no command sources found")
	}
}
