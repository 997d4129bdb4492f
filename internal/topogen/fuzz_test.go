package topogen

import (
	"bytes"
	"testing"

	"repro/internal/lint"
	"repro/internal/topology"
)

// FuzzGenerate drives the generator over arbitrary parameter corners:
// every accepted spec must build — including its per-prefix exit
// overlays, which must all share the base session graph with the full
// exit count — its JSON must round-trip through the loader
// byte-identically, and linting the round-tripped spec must neither
// panic nor change the verdict.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(3), uint8(1), uint8(1), uint8(2), uint8(4), uint8(2), uint8(0), int64(0))
	f.Add(uint8(2), uint8(2), uint8(4), uint8(2), uint8(3), uint8(3), uint8(6), uint8(4), uint8(3), int64(7))
	f.Add(uint8(3), uint8(1), uint8(5), uint8(1), uint8(0), uint8(1), uint8(2), uint8(0), uint8(5), int64(42))
	f.Fuzz(func(t *testing.T, regions, rrs, pops, poprrs, clients, ases, exits, maxMED, prefixes uint8, seed int64) {
		spec := Spec{
			Regions:       1 + int(regions%3),
			RRsPerRegion:  1 + int(rrs%3),
			PoPs:          1 + int(pops%5),
			RRsPerPoP:     1 + int(poprrs%2),
			ClientsPerPoP: int(clients % 4),
			ASes:          1 + int(ases%3),
			Exits:         1 + int(exits%8),
			Prefixes:      int(prefixes % 6),
			MaxMED:        int(maxMED % 5),
			CoreCost:      50,
			AccessCost:    8,
		}
		gen, err := Generate(spec, seed)
		if err != nil {
			t.Fatalf("validated spec rejected: %v", err)
		}
		js, err := JSON(gen)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := topology.ParseSpec(bytes.NewReader(js))
		if err != nil {
			t.Fatalf("generated JSON does not parse: %v", err)
		}
		js2, err := JSON(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, js2) {
			t.Fatal("JSON round-trip is not byte-identical")
		}
		systems, err := topology.BuildSpecAll(parsed)
		if err != nil {
			t.Fatalf("round-tripped spec does not build: %v", err)
		}
		wantSystems := spec.Prefixes
		if wantSystems < 1 {
			wantSystems = 1
		}
		if len(systems) != wantSystems {
			t.Fatalf("BuildSpecAll built %d systems, spec.Prefixes = %d", len(systems), spec.Prefixes)
		}
		for p, sys := range systems {
			if !systems[0].SharesGraph(sys) {
				t.Fatalf("prefix %d does not share the base session graph", p)
			}
			if sys.NumExits() != spec.Exits {
				t.Fatalf("prefix %d has %d exits, want %d", p, sys.NumExits(), spec.Exits)
			}
		}
		direct := lint.LintSpec("direct", gen)
		round := lint.LintSpec("round", parsed)
		if len(direct) != len(systems) || len(round) != len(systems) {
			t.Fatalf("lint reports: %d direct, %d round trip, want one per prefix (%d)", len(direct), len(round), len(systems))
		}
		for p := range direct {
			if direct[p].Verdict != round[p].Verdict {
				t.Fatalf("prefix %d: lint verdict changed across the round trip: %v vs %v", p, direct[p].Verdict, round[p].Verdict)
			}
		}
	})
}
