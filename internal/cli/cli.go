// Package cli holds the option parsing shared by the command-line tools:
// the checked flag values (flags.go), resolving a system from a topology
// file or a paper-figure name, and the key=value family overrides.
package cli

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/churn"
	"repro/internal/figures"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/workload"
)

// FigureNames returns the accepted -figure values in figure order.
func FigureNames() []string {
	var names []string
	for _, e := range figures.All() {
		names = append(names, e.Name)
	}
	return names
}

// LoadSystem resolves a System from exactly one of a topology JSON path or
// a figure name.
func LoadSystem(path, figure string) (*topology.System, error) {
	switch {
	case path != "" && figure != "":
		return nil, fmt.Errorf("use either -topology or -figure, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.Load(f)
	case figure != "":
		for _, e := range figures.All() {
			if e.Name == figure {
				return e.Build().Sys, nil
			}
		}
		return nil, fmt.Errorf("unknown figure %q (want one of %v)", figure, FigureNames())
	default:
		return nil, fmt.Errorf("need -topology FILE or -figure N")
	}
}

// ParseWorkloadParams maps a -params flag value — a comma-separated
// key=value list like "clusters=4,maxmed=2" — onto base, overriding only
// the named fields. The result is validated.
func ParseWorkloadParams(s string, base workload.Params) (workload.Params, error) {
	p := base
	err := parseKVList("-params", s, map[string]func(string) error{
		"clusters":   field(&p.Clusters),
		"minclients": field(&p.MinClients),
		"maxclients": field(&p.MaxClients),
		"ases":       field(&p.ASes),
		"exits":      field(&p.Exits),
		"maxmed":     field(&p.MaxMED),
		"maxcost":    field(&p.MaxCost),
		"extralinks": field(&p.ExtraLinks),
	})
	return p, validated(err, p.Validate)
}

// ParseCrossedSpec maps a -params value onto the crossed (Figure 13)
// family: keys clusters, twoclienton, ases, maxmed, dotted.
func ParseCrossedSpec(s string, base workload.CrossedSpec) (workload.CrossedSpec, error) {
	spec := base
	err := parseKVList("-params", s, map[string]func(string) error{
		"clusters":    field(&spec.Clusters),
		"twoclienton": field(&spec.TwoClientOn),
		"ases":        field(&spec.ASes),
		"maxmed":      field(&spec.MaxMED),
		"dotted":      field(&spec.DottedProb),
	})
	return spec, validated(err, spec.Validate)
}

// ParseTopogenSpec maps a -params / -gen value onto the ISP topology
// generator family: keys regions, rrs, pops, poprrs, clients, ases,
// exits, prefixes, maxmed, corecost, accesscost.
func ParseTopogenSpec(s string, base topogen.Spec) (topogen.Spec, error) {
	spec := base
	err := parseKVList("-params", s, map[string]func(string) error{
		"regions":    field(&spec.Regions),
		"rrs":        field(&spec.RRsPerRegion),
		"pops":       field(&spec.PoPs),
		"poprrs":     field(&spec.RRsPerPoP),
		"clients":    field(&spec.ClientsPerPoP),
		"ases":       field(&spec.ASes),
		"exits":      field(&spec.Exits),
		"prefixes":   field(&spec.Prefixes),
		"maxmed":     field(&spec.MaxMED),
		"corecost":   field(&spec.CoreCost),
		"accesscost": field(&spec.AccessCost),
	})
	return spec, validated(err, spec.Validate)
}

// TopogenFamily maps a -gen / -spec value onto the ISP topology generator
// family: "" or "default" selects topogen.Default(), "small" selects
// topogen.Small(), and anything else is a key=value override list of the
// default family (see ParseTopogenSpec).
func TopogenFamily(s string) (topogen.Spec, error) {
	switch s {
	case "", "default":
		return topogen.Default(), nil
	case "small":
		return topogen.Small(), nil
	}
	return ParseTopogenSpec(s, topogen.Default())
}

// ParseChurnSpec maps a -churn value — a comma-separated key=value list
// like "rate=40,period=500,flap=0.3" — onto base, overriding only the
// named fields: seed, prefixes, rate, period, burst, flap. The result is
// validated, so degenerate workloads (zero rate, burst past the period)
// are rejected here rather than deep in a soak.
func ParseChurnSpec(s string, base churn.Spec) (churn.Spec, error) {
	spec := base
	err := parseKVList("-churn", s, map[string]func(string) error{
		"seed":     field(&spec.Seed),
		"prefixes": field(&spec.Prefixes),
		"rate":     field(&spec.Rate),
		"period":   field(&spec.Period),
		"burst":    field(&spec.Burst),
		"flap":     field(&spec.FlapProb),
	})
	return spec, validated(err, spec.Validate)
}

// parseKVList applies a comma-separated key=value list via per-key
// setters; the empty string sets nothing. flag names the command-line
// flag being parsed, so an error can tell the operator exactly which
// flag and which key is wrong instead of surfacing a raw strconv
// message with no context.
func parseKVList(flag, s string, fields map[string]func(string) error) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		key = strings.ToLower(strings.TrimSpace(key))
		set := fields[key]
		if !ok || set == nil {
			return fmt.Errorf("bad %s entry %q (want key=value with keys %s)", flag, kv, strings.Join(sortedKeys(fields), ", "))
		}
		if err := set(strings.TrimSpace(val)); err != nil {
			return fmt.Errorf("bad %s value for %q: %v", flag, key, err)
		}
	}
	return nil
}

// validated returns err, or once the override list has parsed, the
// overridden family's validate.
func validated(err error, validate func() error) error {
	if err != nil {
		return err
	}
	return validate()
}

// field sets *dst from a key's base-10 value. On a parse failure it leaves
// *dst untouched and names the offending value in plain language; the
// flag and key context is added by parseKVList.
func field[T int | int64 | float64](dst *T) func(string) error {
	return func(v string) error {
		n, err := parse[T](v, 10)
		if err != nil {
			what := "an integer"
			if _, ok := any(n).(float64); ok {
				what = "a number"
			}
			if err == errNotFinite {
				what = "a finite number"
			}
			return fmt.Errorf("%q is not %s", v, what)
		}
		*dst = n
		return nil
	}
}
