package faults

import (
	"strings"
	"testing"
)

func TestFateIsPureAndSeedSensitive(t *testing.T) {
	p := &Plan{Seed: 7, Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, Delay: 0.3, MaxExtraDelay: 20}
	if err := p.Validate(0); err != nil {
		t.Fatal(err)
	}
	// Purity: the same (now, session, seq) always yields the same fate.
	for seq := 0; seq < 200; seq++ {
		a := p.Fate(5, 1, 2, seq)
		b := p.Fate(5, 1, 2, seq)
		if a != b {
			t.Fatalf("seq %d: fate not pure: %+v vs %+v", seq, a, b)
		}
	}
	// Sensitivity: a different seed changes at least one fate over a
	// modest window (overwhelmingly likely for these probabilities).
	q := *p
	q.Seed = 8
	same := true
	for seq := 0; seq < 200 && same; seq++ {
		if p.Fate(5, 1, 2, seq) != q.Fate(5, 1, 2, seq) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 impose identical fates over 200 messages")
	}
	// Directionality: u->v and v->u are independent streams.
	diff := false
	for seq := 0; seq < 200 && !diff; seq++ {
		if p.Fate(5, 1, 2, seq) != p.Fate(5, 2, 1, seq) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("fates identical in both session directions over 200 messages")
	}
}

func TestFateRatesRoughlyMatchProbabilities(t *testing.T) {
	p := &Plan{Seed: 42, Drop: 0.25, Delay: 0.5, MaxExtraDelay: 10}
	const n = 4000
	drops, delays := 0, 0
	for seq := 0; seq < n; seq++ {
		f := p.Fate(0, 0, 1, seq)
		if f.Drop {
			drops++
		}
		if f.ExtraDelay > 0 {
			if f.ExtraDelay < 1 || f.ExtraDelay > 10 {
				t.Fatalf("ExtraDelay %d outside [1,10]", f.ExtraDelay)
			}
			delays++
		}
	}
	if fr := float64(drops) / n; fr < 0.18 || fr > 0.32 {
		t.Fatalf("drop rate %.3f far from 0.25", fr)
	}
	// Delays only fire on non-dropped messages.
	if fr := float64(delays) / n; fr < 0.28 || fr > 0.45 {
		t.Fatalf("delay rate %.3f far from 0.75*0.5", fr)
	}
}

func TestHorizonSilencesPerMessageFaults(t *testing.T) {
	p := &Plan{Seed: 1, Drop: 1, Horizon: 100}
	if err := p.Validate(0); err != nil {
		t.Fatal(err)
	}
	if f := p.Fate(99, 0, 1, 0); !f.Drop {
		t.Fatal("drop=1 did not drop before the horizon")
	}
	for _, now := range []int64{100, 101, 1 << 40} {
		if f := p.Fate(now, 0, 1, 0); f != (Fate{}) {
			t.Fatalf("fault fired at t=%d, at/after horizon 100: %+v", now, f)
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []Plan{
		{Drop: -0.1},
		{Drop: 1.5},
		{Duplicate: 2},
		{MaxExtraDelay: -1},
		{Horizon: -5},
		{Resets: []Reset{{A: 0, B: 0, At: 0, Downtime: 10}}},
		{Resets: []Reset{{A: 0, B: 1, At: -1, Downtime: 10}}},
		{Resets: []Reset{{A: 0, B: 1, At: 0, Downtime: 0}}},
		{Horizon: 100, Resets: []Reset{{A: 0, B: 1, At: 90, Downtime: 20}}},
		{Resets: []Reset{{A: 0, B: 9, At: 0, Downtime: 1}}}, // with nodes=3
	}
	for i, p := range cases {
		if err := p.Validate(3); err == nil {
			t.Errorf("case %d: Validate accepted bad plan %+v", i, p)
		}
	}
	good := Plan{Seed: 3, Drop: 0.5, Horizon: 100,
		Resets: []Reset{{A: 0, B: 2, At: 10, Downtime: 30}}}
	if err := good.Validate(3); err != nil {
		t.Fatalf("Validate rejected a well-formed plan: %v", err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "seed=7,drop=0.05,dup=0.02,reorder=0.01,delay=0.1,maxdelay=30,reset=0-1@100+50;2-3@200+40,horizon=600"
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Drop != 0.05 || p.Duplicate != 0.02 || p.Reorder != 0.01 ||
		p.Delay != 0.1 || p.MaxExtraDelay != 30 || p.Horizon != 600 {
		t.Fatalf("parsed scalars wrong: %+v", p)
	}
	want := []Reset{{A: 0, B: 1, At: 100, Downtime: 50}, {A: 2, B: 3, At: 200, Downtime: 40}}
	if len(p.Resets) != 2 || p.Resets[0] != want[0] || p.Resets[1] != want[1] {
		t.Fatalf("parsed resets %+v, want %+v", p.Resets, want)
	}
	// String round-trips through ParseSpec to an identical plan.
	p2, err := ParseSpec(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip changed the plan: %q vs %q", p.String(), p2.String())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"drop",                     // not key=value
		"bogus=1",                  // unknown key
		"drop=x",                   // bad float
		"drop=2",                   // out of range
		"reset=0-1",                // missing timing
		"reset=01@5+5",             // missing session dash
		"reset=0-1@5",              // missing downtime
		"reset=0-1@a+5",            // bad int
		"horizon=-1",               // negative
		"horizon=-5",               // negative, larger magnitude
		"maxdelay=-1",              // negative delay bound
		"reset=0-0@5+5",            // self loop
		"reset=0-1@-5+5",           // negative reset time
		"reset=0-1@5+0",            // zero downtime
		"reset=0-1@5+-5",           // negative downtime
		"horizon=10,drop=-1",       // probability range
		"horizon=10,reset=0-1@8+5", // reopens after the horizon
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", spec)
		}
	}
	if p, err := ParseSpec("  "); err != nil || p.Active() {
		t.Fatalf("empty spec should parse to an inactive plan, got %+v, %v", p, err)
	}
}

func TestRandomPlanIsPureAndValid(t *testing.T) {
	cfg := RandomConfig{Drop: 0.05, Duplicate: 0.02, Delay: 0.1, MaxExtraDelay: 20, Resets: 3, Horizon: 500}
	a, err := RandomPlan(11, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomPlan(11, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("RandomPlan not pure: %q vs %q", a, b)
	}
	if len(a.Resets) != 3 {
		t.Fatalf("want 3 resets, got %+v", a.Resets)
	}
	for _, r := range a.Resets {
		if r.A == r.B || int(r.A) >= 6 || int(r.B) >= 6 {
			t.Fatalf("reset endpoints outside topology: %+v", r)
		}
		if r.At+r.Downtime > a.Horizon {
			t.Fatalf("reset %+v reopens after horizon %d", r, a.Horizon)
		}
	}
	if c, _ := RandomPlan(12, 6, cfg); c.String() == a.String() {
		t.Fatal("different seeds derived identical plans")
	}
	if _, err := RandomPlan(1, 1, cfg); err == nil {
		t.Fatal("RandomPlan accepted resets over a single-router system")
	}
	if _, err := RandomPlan(1, 6, RandomConfig{Resets: 1}); err == nil {
		t.Fatal("RandomPlan accepted resets without a horizon")
	}
}

func TestSpecStringOmitsInactiveFields(t *testing.T) {
	p := &Plan{Seed: 3, Drop: 0.5}
	s := p.String()
	if strings.Contains(s, "dup") || strings.Contains(s, "reset") || strings.Contains(s, "horizon") {
		t.Fatalf("String rendered inactive fields: %q", s)
	}
	var nilPlan *Plan
	if nilPlan.String() != "" || nilPlan.Active() || nilPlan.Fate(0, 0, 1, 0) != (Fate{}) {
		t.Fatal("nil plan must be inert")
	}
}
