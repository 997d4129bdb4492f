package churn

import (
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
)

// TestCheckerViolationOrder pins the violation stream of one round whose
// state is corrupted in all four gradable ways on prefix 1 of 2: kinds,
// prefixes, order (ledger, then per prefix reconverge, rib, loop) and
// texts. CLI soaks fail too — Classic on Figure 14 settles in its looping
// stable solution, Classic on Figure 1(a) never quiesces (ibgpsoak's
// goldens) — but no CLI run breaks all four ways at once, so this literal
// is what holds the whole violation stream stable across refactors of the
// checker.
func TestCheckerViolationOrder(t *testing.T) {
	f := figures.Fig14()
	cfg := Config{
		Spec:   Spec{Seed: 6, Prefixes: 2, Rate: 20, Period: 200, Burst: 80, FlapProb: 0.3},
		Policy: protocol.Modified,
	}.fill()
	c, err := newChecker(f.Sys, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A genuinely settled round 0: warm up, apply the round's events, rest.
	s := msgsim.NewMulti(domainSystems(f.Sys, cfg.Spec.Prefixes), cfg.Policy, selection.Options{}, msgsim.ConstantDelay(1))
	s.InjectAll()
	res := s.Run(cfg.MaxEventsPerRound)
	evs := c.stream.Next()
	base := s.Now() + 1
	for _, ev := range evs {
		if ev.Withdraw {
			s.WithdrawPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		} else {
			s.InjectPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		}
	}
	res = s.Run(res.Events + cfg.MaxEventsPerRound)
	if !res.Quiesced {
		t.Fatal("round did not quiesce")
	}
	r1, r2 := f.Path("r1"), f.Path("r2")
	if live := c.stream.Live(1); !live.Equal(bgp.NewPathSet(r2)) {
		t.Fatalf("seed no longer withdraws r1 on prefix 1: live %v", live)
	}
	st := state{best: map[uint32][]bgp.PathID{}, possible: map[uint32][]bgp.PathSet{}, announced: map[uint32][]bgp.PathSet{},
		counters: s.Counters(), quiesced: true}
	for p := uint32(0); p < 2; p++ {
		for u := 0; u < f.Sys.N(); u++ {
			st.best[p] = append(st.best[p], s.BestFor(p, bgp.NodeID(u)))
			st.possible[p] = append(st.possible[p], s.PossibleFor(p, bgp.NodeID(u)))
			st.announced[p] = append(st.announced[p], s.AnnouncedFor(p, bgp.NodeID(u)))
		}
	}

	// Corrupt prefix 1 only: the Figure 14 classic configuration is off the
	// model's stable solution and loops (c1 forwards via c2, c2 via c1); c1
	// keeps the withdrawn r1 as a candidate; one message goes missing from
	// the ledger.
	st.best[1] = make([]bgp.PathID, f.Sys.N())
	for _, name := range []string{"RR1", "c1"} {
		st.best[1][f.Node(name)] = r1
	}
	for _, name := range []string{"RR2", "c2"} {
		st.best[1][f.Node(name)] = r2
	}
	st.possible[1][f.Node("c1")] = bgp.NewPathSet(r1, r2)
	st.counters.Sent++

	if !c.check(0, len(evs), st) {
		t.Fatal("check gave up on a quiesced round")
	}
	want := []Violation{
		{Round: 0, Prefix: 0, Kind: "ledger", Detail: "sent=28 but received+rejected+dropped=27 at rest"},
		{Round: 0, Prefix: 1, Kind: "reconverge", Detail: "router RR1 best p0, model p1"},
		{Round: 0, Prefix: 1, Kind: "rib", Detail: "router c1 retains withdrawn route p0 (live {p1})"},
		{Round: 0, Prefix: 1, Kind: "loop", Detail: "forwarding plane has a loop under [0 0 1 1]"},
	}
	if !reflect.DeepEqual(c.violations, want) {
		t.Fatalf("violations:\n%+v\nwant:\n%+v", c.violations, want)
	}
	if c.checked != 1 {
		t.Fatalf("checked = %d, want 1", c.checked)
	}
}
