package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Finding is one diagnostic.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Msg)
}

// trackedEnums names the iota enums whose switches must be exhaustive.
// These steer protocol behaviour: a silently unhandled variant means a
// policy or outcome falls through to another's logic.
var trackedEnums = map[string]bool{
	"Policy":        true,
	"SuccessorMode": true,
	"Outcome":       true,
}

// detPackages are the import-path suffixes of the packages whose
// determinism the paper's claims depend on (Lemma 7.4: the modified
// protocol reaches one unique outcome; the experiments assert byte-equal
// results across runs). Ranging over a Go map there introduces
// scheduler-visible nondeterminism, so it is banned outright — sort the
// keys first.
var detPackages = []string{
	"internal/protocol",
	"internal/explore",
	"internal/selection",
}

// mutatingPathSetMethods are the pointer-receiver mutators of bgp.PathSet.
// Calling one on a PathSet received *by value* mutates the bitset words
// shared with the caller (the slice header is copied, the backing array is
// not) — an aliasing bug, not a local change.
var mutatingPathSetMethods = map[string]bool{
	"Add":    true,
	"Remove": true,
	"Union":  true,
}

// hotkeyPackages are the import-path suffixes of the exploration hot path.
// State identity there must go through the binary codec (EncodeState words
// interned in protocol.Arena); building keys with fmt formatting is how
// the old per-state string allocation crept in, so Sprintf/Fprintf are
// banned outside String methods. Errorf and the Print family stay allowed
// — they never become keys.
var hotkeyPackages = []string{
	"internal/protocol",
	"internal/explore",
}

// hotkeyFuncs are the fmt formatters that produce or fill key material.
var hotkeyFuncs = map[string]bool{
	"Sprintf": true,
	"Fprintf": true,
}

// passRegistryPackages are the import-path suffixes of packages that keep
// a registry of named analysis passes (composite literals of type Pass
// with a Name field). Every registered name must appear in that package's
// own test files: the verdict-table tests pin each pass's behaviour, and a
// pass that no test ever names is a pass whose regressions go unnoticed.
var passRegistryPackages = []string{
	"internal/lint",
}

// timerPackages are the import-path suffixes of packages whose wall-clock
// timers must stay accounted in a quiescence gauge: arming a timer and
// moving the gauge happen in the one helper named timerHelper and nowhere
// else, so a gauge leak (a network that never reads settled) or a missed
// slot (one that reads settled with work pending) can exist in one place.
var timerPackages = []string{"internal/speaker"}

const timerHelper = "after"

// ifaceMethodNames are method names that satisfy standard-library
// interfaces (fmt.Stringer, error, json.Marshaler, sort.Interface,
// heap.Interface, io.Reader/Writer/Closer, http.Handler, ...). Such methods
// are called through the interface by code outside the module, so the
// dead-export check cannot expect to see their names referenced.
var ifaceMethodNames = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// globalRandFuncs are the top-level math/rand functions that draw from the
// shared, process-global source. Every random draw in internal/... must come
// from an explicitly seeded *rand.Rand (rand.New(rand.NewSource(seed))):
// census and experiment results are keyed by seed, and a single global draw
// makes them irreproducible. Constructors (New, NewSource, NewZipf) are the
// sanctioned way in and stay allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// pkg is one parsed directory of Go files.
type pkg struct {
	dir   string
	name  string // package name from the source
	files map[string]*ast.File
}

// enum is one tracked enum: the constants of a `type T int` iota block.
type enum struct {
	dir     string // declaring package directory
	pkgName string
	typ     string
	members []string
}

// analyzer runs the repo checks over a set of parsed packages.
type analyzer struct {
	fset     *token.FileSet
	pkgs     []*pkg
	enums    []enum
	findings []Finding
}

// loadDirs parses every .go file in the given directories (tests
// included; their determinism matters just as much). Directories with no
// Go files are skipped silently so tree walks stay simple.
func loadDirs(fset *token.FileSet, dirs []string) ([]*pkg, error) {
	var pkgs []*pkg
	for _, dir := range dirs {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			continue
		}
		sort.Strings(matches)
		p := &pkg{dir: dir, files: map[string]*ast.File{}}
		for _, path := range matches {
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files[path] = file
			if p.name == "" && !strings.HasSuffix(file.Name.Name, "_test") {
				p.name = file.Name.Name
			}
		}
		if p.name == "" {
			for _, f := range p.files {
				p.name = strings.TrimSuffix(f.Name.Name, "_test")
				break
			}
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// expandPatterns resolves command-line arguments into directories: a
// trailing "/..." walks the tree (skipping .git, testdata and hidden
// directories), anything else is taken as a single directory.
func expandPatterns(args []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, arg := range args {
		root, rec := strings.CutSuffix(arg, "/...")
		if root == "" {
			root = "."
		}
		if !rec {
			add(arg)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Analyze parses the directories and runs every check, returning findings
// sorted by position.
func Analyze(dirs []string) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := loadDirs(fset, dirs)
	if err != nil {
		return nil, err
	}
	a := &analyzer{fset: fset, pkgs: pkgs}
	a.collectEnums()
	for _, p := range a.pkgs {
		det := inPackages(p.dir, detPackages)
		paths := make([]string, 0, len(p.files))
		for path := range p.files {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		internal := strings.Contains(filepath.ToSlash(p.dir)+"/", "internal/")
		hot := inPackages(p.dir, hotkeyPackages)
		timed := inPackages(p.dir, timerPackages)
		for _, path := range paths {
			file := p.files[path]
			a.checkSwitches(p, file)
			a.checkPathSetMutation(file)
			a.checkEmptyInterface(file)
			if det {
				a.checkMapRange(file)
			}
			if internal {
				a.checkGlobalRand(file)
			}
			if hot && !strings.HasSuffix(path, "_test.go") {
				a.checkHotKey(file)
			}
			if timed && !strings.HasSuffix(path, "_test.go") {
				a.checkSpeakerTimer(file)
			}
		}
		if inPackages(p.dir, passRegistryPackages) {
			a.checkPassCoverage(p)
		}
	}
	a.checkDeadExports(dirs)
	sort.Slice(a.findings, func(i, j int) bool {
		fi, fj := a.findings[i], a.findings[j]
		if fi.Pos.Filename != fj.Pos.Filename {
			return fi.Pos.Filename < fj.Pos.Filename
		}
		return fi.Pos.Line < fj.Pos.Line
	})
	return a.findings, nil
}

// inPackages reports whether dir is one of the packages named by the
// import-path suffixes.
func inPackages(dir string, suffixes []string) bool {
	d := filepath.ToSlash(dir)
	for _, suffix := range suffixes {
		if strings.HasSuffix(d, suffix) {
			return true
		}
	}
	return false
}

func (a *analyzer) report(pos token.Pos, check, format string, args ...any) {
	a.findings = append(a.findings, Finding{
		Pos:   a.fset.Position(pos),
		Check: check,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// collectEnums finds `type T int` declarations for tracked names and the
// members of their iota const blocks, in every parsed package.
func (a *analyzer) collectEnums() {
	for _, p := range a.pkgs {
		declared := map[string]bool{}
		for _, file := range p.files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if trackedEnums[ts.Name.Name] {
						declared[ts.Name.Name] = true
					}
				}
			}
		}
		if len(declared) == 0 {
			continue
		}
		members := map[string][]string{}
		for _, file := range p.files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				// Track the running type of an iota block: a ValueSpec
				// with an explicit type sets it; one with values but no
				// type clears it; a bare continuation inherits it.
				cur := ""
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					switch {
					case vs.Type != nil:
						if id, ok := vs.Type.(*ast.Ident); ok && declared[id.Name] {
							cur = id.Name
						} else {
							cur = ""
						}
					case len(vs.Values) > 0:
						cur = ""
					}
					if cur == "" {
						continue
					}
					for _, name := range vs.Names {
						if name.Name != "_" {
							members[cur] = append(members[cur], name.Name)
						}
					}
				}
			}
		}
		// Deterministic order for reporting.
		typs := make([]string, 0, len(members))
		for typ := range members {
			typs = append(typs, typ)
		}
		sort.Strings(typs)
		for _, typ := range typs {
			if len(members[typ]) > 1 {
				a.enums = append(a.enums, enum{dir: p.dir, pkgName: p.name, typ: typ, members: members[typ]})
			}
		}
	}
}

// checkSwitches flags tag switches that mention some members of a tracked
// enum but neither cover all of them nor declare a default clause.
func (a *analyzer) checkSwitches(p *pkg, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		var caseNames []string
		hasDefault := false
		for _, stmt := range sw.Body.List {
			cc := stmt.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
				continue
			}
			for _, expr := range cc.List {
				switch e := expr.(type) {
				case *ast.Ident:
					caseNames = append(caseNames, e.Name)
				case *ast.SelectorExpr:
					if x, ok := e.X.(*ast.Ident); ok {
						caseNames = append(caseNames, x.Name+"."+e.Sel.Name)
					}
				}
			}
		}
		if hasDefault || len(caseNames) == 0 {
			return true
		}
		for _, en := range a.enums {
			// Members are referenced bare within the declaring package and
			// package-qualified elsewhere.
			qualify := ""
			if filepath.Clean(en.dir) != filepath.Clean(p.dir) {
				qualify = en.pkgName + "."
			}
			covered := map[string]bool{}
			for _, m := range en.members {
				for _, c := range caseNames {
					if c == qualify+m {
						covered[m] = true
					}
				}
			}
			if len(covered) == 0 || len(covered) == len(en.members) {
				continue
			}
			var missing []string
			for _, m := range en.members {
				if !covered[m] {
					missing = append(missing, m)
				}
			}
			a.report(sw.Pos(), "exhaustive-switch",
				"switch over %s.%s is missing cases %s and has no default clause",
				en.pkgName, en.typ, strings.Join(missing, ", "))
		}
		return true
	})
}

// checkMapRange flags `for ... range m` where m is a map declared in the
// enclosing function (parameter, make(map...), map literal, or var with a
// map type). The resolution is syntactic and function-local: that is the
// shape every nondeterministic iteration in this repo has taken, and it
// keeps the linter dependency-free (no go/types, no module loader).
func (a *analyzer) checkMapRange(file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		maps := map[string]bool{}
		collect := func(name string, typ ast.Expr) {
			if _, ok := typ.(*ast.MapType); ok && name != "_" {
				maps[name] = true
			}
		}
		if fd.Type.Params != nil {
			for _, f := range fd.Type.Params.List {
				for _, n := range f.Names {
					collect(n.Name, f.Type)
				}
			}
		}
		// First sweep: find map-typed declarations anywhere in the body
		// (including inside closures — ranges are matched per name, and a
		// shadowing non-map redeclaration is not expected in this repo).
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(st.Rhs) {
						continue
					}
					switch rhs := st.Rhs[i].(type) {
					case *ast.CallExpr:
						if fun, ok := rhs.Fun.(*ast.Ident); ok && fun.Name == "make" && len(rhs.Args) > 0 {
							collect(id.Name, rhs.Args[0])
						}
					case *ast.CompositeLit:
						if rhs.Type != nil {
							collect(id.Name, rhs.Type)
						}
					}
				}
			case *ast.DeclStmt:
				if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						vs := spec.(*ast.ValueSpec)
						if vs.Type != nil {
							for _, n := range vs.Names {
								collect(n.Name, vs.Type)
							}
						}
					}
				}
			case *ast.FuncLit:
				if st.Type.Params != nil {
					for _, f := range st.Type.Params.List {
						for _, n := range f.Names {
							collect(n.Name, f.Type)
						}
					}
				}
			}
			return true
		})
		if len(maps) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if id, ok := rs.X.(*ast.Ident); ok && maps[id.Name] {
				a.report(rs.Pos(), "map-range",
					"range over map %s in a determinism-critical package: iteration order is "+
						"nondeterministic (Lemma 7.4 claims unique outcomes) — sort the keys first, or use clear()",
					id.Name)
			}
			return true
		})
	}
}

// checkGlobalRand flags calls of top-level math/rand functions in
// internal packages: they draw from the process-global source, so results
// stop being a pure function of the seed. The import's local name is
// tracked so aliased imports don't dodge the check.
func (a *analyzer) checkGlobalRand(file *ast.File) {
	randName := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "math/rand" {
			continue
		}
		randName = "rand"
		if imp.Name != nil {
			randName = imp.Name.Name
		}
	}
	if randName == "" || randName == "_" || randName == "." {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !globalRandFuncs[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == randName && id.Obj == nil {
			a.report(call.Pos(), "global-rand",
				"%s.%s draws from the process-global math/rand source: results are no longer a pure "+
					"function of the seed — use rand.New(rand.NewSource(seed)) instead", randName, sel.Sel.Name)
		}
		return true
	})
}

// checkHotKey flags fmt.Sprintf/fmt.Fprintf in the state hot path
// (internal/protocol, internal/explore, non-test files): formatted strings
// there are almost always state keys, and string keys are exactly what the
// interned binary arena replaced. String methods are exempt — rendering
// for humans is their job. The import's local name is tracked so aliased
// imports don't dodge the check.
func (a *analyzer) checkHotKey(file *ast.File) {
	fmtName := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "fmt" {
			continue
		}
		fmtName = "fmt"
		if imp.Name != nil {
			fmtName = imp.Name.Name
		}
	}
	if fmtName == "" || fmtName == "_" || fmtName == "." {
		return
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "String" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !hotkeyFuncs[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == fmtName && id.Obj == nil {
				a.report(call.Pos(), "hotkey",
					"%s.%s in the exploration hot path: string-built state keys were replaced by the "+
						"interned binary arena (EncodeState words) — keep key construction binary, or move "+
						"rendering into a String method", fmtName, sel.Sel.Name)
			}
			return true
		})
	}
}

// checkSpeakerTimer flags, in non-test files of the timer packages, every
// time.AfterFunc call and every <x>.timers.Add call outside the function
// named timerHelper.
func (a *analyzer) checkSpeakerTimer(file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == timerHelper {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fun := types.ExprString(call.Fun); fun == "time.AfterFunc" || strings.HasSuffix(fun, ".timers.Add") {
				a.report(call.Pos(), "speaker-timer",
					"%s in %s: arm timers and move the timers gauge only through %s(), "+
						"the one path that keeps every outstanding timer visible to Quiesced",
					fun, fd.Name.Name, timerHelper)
			}
			return true
		})
	}
}

// checkDeadExports flags exported functions and methods declared in
// non-test files under internal/ whose name appears in no non-test file of
// the module — not in another package, a command, or the benchmark.
// internal/ has no importers outside the module, so such a declaration is
// surface no shipped code reaches: delete it, or unexport it if only its
// own package and tests need it. References from _test.go files do not
// count. The match is by name, like every check here: a name
// shared with a live declaration, a struct field or an interface method
// counts as referenced. The check runs only when the module root (the
// directory holding go.mod) is among the parsed directories, because only
// then is the set of references complete.
func (a *analyzer) checkDeadExports(dirs []string) {
	if !slices.ContainsFunc(dirs, func(dir string) bool {
		_, err := os.Stat(filepath.Join(dir, "go.mod"))
		return err == nil
	}) {
		return
	}
	declNames := map[*ast.Ident]bool{}
	var decls []*ast.FuncDecl
	for _, p := range a.pkgs {
		internal := strings.Contains(filepath.ToSlash(p.dir)+"/", "internal/")
		for path, file := range p.files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declNames[fd.Name] = true
				if internal && fd.Name.IsExported() && !(fd.Recv != nil && ifaceMethodNames[fd.Name.Name]) {
					decls = append(decls, fd)
				}
			}
		}
	}
	referenced := map[string]bool{}
	for _, p := range a.pkgs {
		for path, file := range p.files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declNames[id] {
					referenced[id.Name] = true
				}
				return true
			})
		}
	}
	for _, fd := range decls {
		if !referenced[fd.Name.Name] {
			a.report(fd.Name.Pos(), "deadexport",
				"exported %s is referenced by no non-test file in the module: delete it, or unexport it", fd.Name.Name)
		}
	}
}

// checkEmptyInterface flags the pre-generics spelling interface{}: the
// repo writes the empty interface as any (Go 1.18+), and mixing the two
// spellings makes grep-ability and gofmt churn worse. The check is purely
// syntactic — `any` parses as an identifier, so it is never flagged.
func (a *analyzer) checkEmptyInterface(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		it, ok := n.(*ast.InterfaceType)
		if !ok || it.Methods == nil || len(it.Methods.List) > 0 {
			return true
		}
		a.report(it.Pos(), "empty-interface",
			"interface{} spelled out: write any instead (the repo is Go 1.18+ throughout)")
		return true
	})
}

// checkPathSetMutation flags calls of a mutating PathSet method on a
// parameter received by value: the copy shares the bitset's backing array
// with the caller, so the "local" mutation aliases the caller's set.
func (a *analyzer) checkPathSetMutation(file *ast.File) {
	isPathSet := func(typ ast.Expr) bool {
		switch t := typ.(type) {
		case *ast.Ident:
			return t.Name == "PathSet"
		case *ast.SelectorExpr:
			return t.Sel.Name == "PathSet"
		}
		return false
	}
	check := func(params *ast.FieldList, body *ast.BlockStmt) {
		if params == nil || body == nil {
			return
		}
		byValue := map[string]bool{}
		for _, f := range params.List {
			if isPathSet(f.Type) {
				for _, n := range f.Names {
					byValue[n.Name] = true
				}
			}
		}
		if len(byValue) == 0 {
			return
		}
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !mutatingPathSetMethods[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && byValue[id.Name] {
				a.report(call.Pos(), "pathset-mutation",
					"%s.%s mutates a PathSet received by value: the bitset words are shared with the caller — "+
						"take *PathSet or Clone() first", id.Name, sel.Sel.Name)
			}
			return true
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			check(fn.Type.Params, fn.Body)
		case *ast.FuncLit:
			check(fn.Type.Params, fn.Body)
		}
		return true
	})
}

// checkPassCoverage runs on pass-registry packages: every Pass composite
// literal in non-test files must have its Name string appear in some test
// file of the same package (the verdict-table tests address passes by
// name). Registering a pass without ever naming it in a test means its
// verdict contribution is untested.
func (a *analyzer) checkPassCoverage(p *pkg) {
	isPassType := func(typ ast.Expr) bool {
		switch t := typ.(type) {
		case *ast.Ident:
			return t.Name == "Pass"
		case *ast.SelectorExpr:
			return t.Sel.Name == "Pass"
		}
		return false
	}
	type namedPass struct {
		name string
		pos  token.Pos
	}
	var passes []namedPass
	var testStrings []string
	paths := make([]string, 0, len(p.files))
	for path := range p.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		file := p.files[path]
		if strings.HasSuffix(path, "_test.go") {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						testStrings = append(testStrings, s)
					}
				}
				return true
			})
			continue
		}
		collect := func(cl *ast.CompositeLit) {
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "Name" {
					continue
				}
				if lit, ok := kv.Value.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && s != "" {
						passes = append(passes, namedPass{name: s, pos: lit.Pos()})
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || cl.Type == nil {
				return true
			}
			switch typ := cl.Type.(type) {
			case *ast.ArrayType:
				// []Pass{{...}, ...}: the element literals elide the type.
				if !isPassType(typ.Elt) {
					return true
				}
				for _, elt := range cl.Elts {
					if inner, ok := elt.(*ast.CompositeLit); ok && inner.Type == nil {
						collect(inner)
					}
				}
			default:
				if isPassType(cl.Type) {
					collect(cl)
				}
			}
			return true
		})
	}
	for _, np := range passes {
		covered := false
		for _, s := range testStrings {
			if strings.Contains(s, np.name) {
				covered = true
				break
			}
		}
		if !covered {
			a.report(np.pos, "pass-coverage",
				"lint pass %q is registered but never named in this package's tests: "+
					"add it to the verdict-table tests so its findings are pinned", np.name)
		}
	}
}
