package cli

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/speaker"
)

// The commands register every numeric and named-value flag here as a
// flag.Value whose Set parses and checks, so flag.Parse itself rejects a bad
// value (`invalid value "-7" for flag -max-states: must be at least 0`,
// then the usage, exit 2). Each flag's -h line states its range or names.

type number interface {
	int | int64 | float64 | time.Duration
}

// bounded is a numeric flag value with an inclusive lower bound.
type bounded[T number] struct {
	p   *T
	min T
}

func (b *bounded[T]) Set(s string) error {
	v, err := parse[T](s, 0)
	if ne, ok := err.(*strconv.NumError); ok {
		err = ne.Err
	}
	if err == nil && v < b.min {
		err = fmt.Errorf("must be at least %v", b.min)
	}
	if err == nil {
		*b.p = v
	}
	return err
}

var errNotFinite = errors.New("not a finite number")

// parse parses s as a T, integers in the given base (0 is the Go literal
// syntax of the standard library's numeric flags). It rejects NaN and
// ±Inf, which strconv.ParseFloat accepts but no range check catches: every
// comparison with NaN is false.
func parse[T number](s string, base int) (T, error) {
	var v T
	var err error
	switch p := any(&v).(type) {
	case *int:
		var n int64
		n, err = strconv.ParseInt(s, base, strconv.IntSize)
		*p = int(n)
	case *int64:
		*p, err = strconv.ParseInt(s, base, 64)
	case *float64:
		if *p, err = strconv.ParseFloat(s, 64); err == nil && (math.IsNaN(*p) || math.IsInf(*p, 0)) {
			err = errNotFinite
		}
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	}
	return v, err
}

// String must not dereference a nil p: flag calls it on a zero bounded
// when printing -h.
func (b *bounded[T]) String() string {
	var v T
	if b.p != nil {
		v = *b.p
	}
	return fmt.Sprint(v)
}

func bound[T number](name string, def, min T, kind, usage string) *T {
	p := &def
	note := fmt.Sprintf("at least %v", min)
	if any(min) == any(int64(math.MinInt64)) {
		note = "any value"
	}
	// flag.UnquoteUsage takes the back-quoted kind as the -h placeholder.
	flag.Var(&bounded[T]{p, min}, name, fmt.Sprintf("%s (`%s`, %s)", usage, kind, note))
	return p
}

// Int registers an int flag that accepts values of at least min.
func Int(name string, def, min int, usage string) *int { return bound(name, def, min, "int", usage) }

// Int64 registers an int64 flag that accepts values of at least min; a
// seed passes math.MinInt64.
func Int64(name string, def, min int64, usage string) *int64 {
	return bound(name, def, min, "int", usage)
}

// Float64 registers a float64 flag that accepts finite values of at least
// min.
func Float64(name string, def, min float64, usage string) *float64 {
	return bound(name, def, min, "float", usage)
}

// Duration registers a duration flag that accepts values of at least min;
// a flag that must be positive passes time.Nanosecond.
func Duration(name string, def, min time.Duration, usage string) *time.Duration {
	return bound(name, def, min, "duration", usage)
}

// choice is a flag value that must be one of the keys of names.
type choice[T any] struct {
	p     *T
	names map[string]T
	name  string // the name last set
}

func (c *choice[T]) Set(s string) error {
	v, ok := c.names[s]
	if !ok {
		return fmt.Errorf("must be one of %s", c.list())
	}
	*c.p, c.name = v, s
	return nil
}

func (c *choice[T]) String() string { return c.name }

// list renders the sorted names as "a, b or c".
func (c *choice[T]) list() string { return orList(sortedKeys(c.names)) }

// orList renders names as "a, b or c".
func orList(names []string) string {
	last := len(names) - 1
	if last == 0 {
		return names[0]
	}
	return strings.Join(names[:last], ", ") + " or " + names[last]
}

func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Choice registers a flag whose value must be one of the keys of names,
// the only place a flag's names are written; the returned pointer holds
// the value the flag names, def's until it is set.
func Choice[T any](name, def, usage string, names map[string]T) *T {
	c := &choice[T]{p: new(T), names: names}
	if err := c.Set(def); err != nil {
		panic(fmt.Sprintf("cli: default of -%s: %v", name, err))
	}
	flag.Var(c, name, usage+" ("+c.list()+")")
	return c.p
}

// A Scope names the flags that only some modes of a command read: Parse
// rejects such a flag set on the command line when the chosen mode does not
// read it, and its -h line says which modes do. A flag no Scope names is
// read in every mode.
type Scope struct {
	flag  string
	reads map[string][]string // mode -> the flags it reads
	gate  bool
}

// Modes scopes flags to the values of the mode flag name: reads maps each
// value to the mode-specific flags it reads.
func Modes(name string, reads map[string][]string) Scope { return Scope{name, reads, false} }

// Gate scopes flags to the gate flag name: they are read only when it holds
// a non-empty value.
func Gate(name string, reads ...string) Scope {
	return Scope{name, map[string][]string{name: reads}, true}
}

// readers renders the modes that read flag f ("with -gen" or "by -job
// census, fig13 or lint", "" if the scope does not name f) and reports
// whether mode, the mode flag's value, reads it.
func (s Scope) readers(f, mode string) (string, bool) {
	var modes []string
	for m, flags := range s.reads {
		if slices.Contains(flags, f) {
			modes = append(modes, m)
		}
	}
	if modes == nil {
		return "", true
	}
	if s.gate {
		return "with -" + s.flag, mode != ""
	}
	sort.Strings(modes)
	return "by -" + s.flag + " " + orList(modes), slices.Contains(modes, mode)
}

// note adds "(read only ...)" to each scoped flag's -h line, once. A scope
// naming an undefined flag panics here, before any command runs.
func note(fs *flag.FlagSet, scopes []Scope) {
	for _, s := range scopes {
		for _, flags := range s.reads {
			for _, f := range flags {
				where, _ := s.readers(f, "")
				if fl := fs.Lookup(f); !strings.HasSuffix(fl.Usage, where+")") {
					fl.Usage += " (read only " + where + ")"
				}
			}
		}
	}
}

// unread reports each flag set on fs's command line that the chosen mode
// of its scope does not read.
func unread(fs *flag.FlagSet, scopes []Scope) error {
	var errs []error
	fs.Visit(func(fl *flag.Flag) {
		for _, s := range scopes {
			mode := fs.Lookup(s.flag).Value.String()
			switch where, ok := s.readers(fl.Name, mode); {
			case ok:
			case s.gate:
				errs = append(errs, fmt.Errorf("flag -%s is read only %s", fl.Name, where))
			default:
				errs = append(errs, fmt.Errorf("flag -%s is not read by -%s %s, only %s", fl.Name, s.flag, mode, where))
			}
		}
	})
	return errors.Join(errs...)
}

// Parse is flag.Parse under scopes: a flag set on the command line that the
// chosen mode does not read is a usage error, reported like a bad value
// (the flag, the modes that read it, then the usage; exit 2).
func Parse(scopes ...Scope) {
	note(flag.CommandLine, scopes)
	flag.Parse()
	if err := unread(flag.CommandLine, scopes); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}
}

// Policies are the -policy names.
var Policies = map[string]protocol.Policy{
	"classic": protocol.Classic, "walton": protocol.Walton,
	"modified": protocol.Modified, "adaptive": protocol.Adaptive,
}

// Orders are the -order names.
var Orders = map[string]selection.Order{"paper": selection.PaperOrder, "rfc": selection.RFCOrder}

// MEDModes are the -med names.
var MEDModes = map[string]selection.MEDMode{"standard": selection.PerNeighborAS, "always": selection.AlwaysCompare}

// Codecs are the -codec names: each TCP speaker wire format by its Name.
var Codecs = map[string]speaker.Codec{
	speaker.PrivateCodec.Name(): speaker.PrivateCodec, speaker.BGP4.Name(): speaker.BGP4,
}

// Schedules are the -schedule names; each builds an activation schedule
// over n routers from a seed.
var Schedules = map[string]func(n int, seed int64) protocol.Schedule{
	"roundrobin": func(n int, _ int64) protocol.Schedule { return protocol.RoundRobin(n) },
	"allatonce":  func(n int, _ int64) protocol.Schedule { return protocol.AllAtOnce(n) },
	"random":     protocol.PermutationRounds,
	"subsets":    protocol.SubsetRounds,
}
