package msgsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/trace"
)

func TestFig14ClassicQuiescesToLoopState(t *testing.T) {
	f := figures.Fig14()
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(1))
	s.InjectAll()
	res := s.Run(0)
	if !res.Quiesced {
		t.Fatalf("did not quiesce: %+v", res)
	}
	if res.Best[f.Node("RR1")] != f.Path("r1") || res.Best[f.Node("RR2")] != f.Path("r2") {
		t.Fatalf("reflector routes wrong: %v", res.Best)
	}
	if res.Best[f.Node("c1")] != f.Path("r1") || res.Best[f.Node("c2")] != f.Path("r2") {
		t.Fatalf("client routes wrong: %v", res.Best)
	}
}

func TestFig14ModifiedQuiescesLoopFree(t *testing.T) {
	f := figures.Fig14()
	s := New(f.Sys, protocol.Modified, selection.Options{}, ConstantDelay(1))
	s.InjectAll()
	res := s.Run(0)
	if !res.Quiesced {
		t.Fatalf("did not quiesce: %+v", res)
	}
	if res.Best[f.Node("c1")] != f.Path("r2") || res.Best[f.Node("c2")] != f.Path("r1") {
		t.Fatalf("modified client routes wrong: %v", res.Best)
	}
}

func TestFig1aClassicNeverQuiesces(t *testing.T) {
	f := figures.Fig1a()
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(1))
	s.InjectAll()
	res := s.Run(20000)
	if res.Quiesced {
		t.Fatalf("Fig1a quiesced under classic I-BGP: %+v", res)
	}
	if res.Flaps < 100 {
		t.Fatalf("expected sustained flapping, got %d flaps", res.Flaps)
	}
}

func TestFig1aModifiedQuiesces(t *testing.T) {
	f := figures.Fig1a()
	for seed := int64(1); seed <= 5; seed++ {
		s := New(f.Sys, protocol.Modified, selection.Options{}, MustRandomDelay(seed, 1, 20))
		s.InjectAll()
		res := s.Run(0)
		if !res.Quiesced {
			t.Fatalf("seed %d: did not quiesce", seed)
		}
		want := map[string]bgp.PathID{
			"A": f.Path("r1"), "a1": f.Path("r1"), "a2": f.Path("r1"),
			"B": f.Path("r1"), "b1": f.Path("r3"),
		}
		for name, p := range want {
			if res.Best[f.Node(name)] != p {
				t.Fatalf("seed %d: %s best = p%d, want p%d", seed, name, res.Best[f.Node(name)], p)
			}
		}
	}
}

func TestMsgsimAgreesWithActivationModelOnConvergentFigures(t *testing.T) {
	// Where classic I-BGP converges deterministically, the operational
	// simulator and the abstract activation model agree on the outcome.
	for _, tc := range []struct {
		name string
		fig  *figures.Fig
	}{
		{"Fig12", figures.Fig12()},
		{"Fig14", figures.Fig14()},
	} {
		e := protocol.New(tc.fig.Sys, protocol.Classic, selection.Options{})
		pres := protocol.Run(e, protocol.RoundRobin(tc.fig.Sys.N()), protocol.RunOptions{MaxSteps: 2000})
		if pres.Outcome != protocol.Converged {
			t.Fatalf("%s: activation model did not converge", tc.name)
		}
		s := New(tc.fig.Sys, protocol.Classic, selection.Options{}, ConstantDelay(3))
		s.InjectAll()
		mres := s.Run(0)
		if !mres.Quiesced {
			t.Fatalf("%s: msgsim did not quiesce", tc.name)
		}
		for u := range mres.Best {
			if mres.Best[u] != pres.Final.Best[u] {
				t.Fatalf("%s: node %d disagrees: msgsim p%d vs model p%d",
					tc.name, u, mres.Best[u], pres.Final.Best[u])
			}
		}
	}
}

func TestFig2DelaysSelectOutcome(t *testing.T) {
	f := figures.Fig2()
	RR1, RR2 := f.Node("RR1"), f.Node("RR2")

	// c1's announcement reaches RR1 fast, RR1's reflection reaches RR2
	// before c2's own announcement settles: all-r1.
	fast1 := func(from, to bgp.NodeID, seq int) int64 {
		if from == f.Node("c2") {
			return 100 // c2's injection is slow
		}
		return 1
	}
	s := New(f.Sys, protocol.Classic, selection.Options{}, fast1)
	s.InjectAll()
	res := s.Run(0)
	if !res.Quiesced {
		t.Fatalf("fast1 did not quiesce: %+v", res)
	}
	if res.Best[RR1] != f.Path("r1") || res.Best[RR2] != f.Path("r1") {
		t.Fatalf("fast1 outcome: %v, want all-r1", res.Best)
	}

	// Mirror image: all-r2.
	fast2 := func(from, to bgp.NodeID, seq int) int64 {
		if from == f.Node("c1") {
			return 100
		}
		return 1
	}
	s2 := New(f.Sys, protocol.Classic, selection.Options{}, fast2)
	s2.InjectAll()
	res2 := s2.Run(0)
	if !res2.Quiesced {
		t.Fatalf("fast2 did not quiesce: %+v", res2)
	}
	if res2.Best[RR1] != f.Path("r2") || res2.Best[RR2] != f.Path("r2") {
		t.Fatalf("fast2 outcome: %v, want all-r2", res2.Best)
	}

	// Same delays under the modified protocol: both land on the identical
	// configuration.
	m1 := New(f.Sys, protocol.Modified, selection.Options{}, fast1)
	m1.InjectAll()
	mres1 := m1.Run(0)
	m2 := New(f.Sys, protocol.Modified, selection.Options{}, fast2)
	m2.InjectAll()
	mres2 := m2.Run(0)
	if !mres1.Quiesced || !mres2.Quiesced {
		t.Fatal("modified did not quiesce")
	}
	for u := range mres1.Best {
		if mres1.Best[u] != mres2.Best[u] {
			t.Fatalf("modified outcome depends on delays at node %d", u)
		}
	}
}

func TestFig2SymmetricDelaysOscillate(t *testing.T) {
	// Perfectly symmetric delays keep the reflectors in lockstep — the
	// message-passing analogue of the synchronous activation oscillation.
	f := figures.Fig2()
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(10))
	s.InjectAll()
	res := s.Run(4000)
	if res.Quiesced {
		t.Fatalf("symmetric delays quiesced: %+v (best %v)", res, res.Best)
	}
	if res.Flaps < 50 {
		t.Fatalf("expected sustained flapping, got %d", res.Flaps)
	}
}

func TestFig3DelayScenarios(t *testing.T) {
	f := figures.Fig3()
	B, C := f.Node("B"), f.Node("C")

	// Scenario 1: r1 flashes in and out before anything propagates —
	// outcome {B:r3, C:r6}.
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(50))
	for _, name := range []string{"r2", "r3", "r4", "r5", "r6"} {
		s.InjectAt(0, f.Path(name))
	}
	res := s.Run(0)
	if !res.Quiesced || res.Best[B] != f.Path("r3") || res.Best[C] != f.Path("r6") {
		t.Fatalf("scenario 1: %+v best=%v", res, res.Best)
	}

	// Scenario 2: r1 is visible long enough to flip B to r4 and C to r5,
	// then withdrawn — outcome {B:r4, C:r5}: same final E-BGP input,
	// different timing, different stable solution.
	s2 := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(50))
	for _, name := range []string{"r2", "r3", "r4", "r5", "r6"} {
		s2.InjectAt(0, f.Path(name))
	}
	s2.InjectAt(0, f.Path("r1"))
	s2.WithdrawAt(2000, f.Path("r1"))
	res2 := s2.Run(0)
	if !res2.Quiesced || res2.Best[B] != f.Path("r4") || res2.Best[C] != f.Path("r5") {
		t.Fatalf("scenario 2: %+v best=%v", res2, res2.Best)
	}

	// Modified protocol: both timings give the identical outcome.
	var finals [][]bgp.PathID
	for variant := 0; variant < 2; variant++ {
		m := New(f.Sys, protocol.Modified, selection.Options{}, ConstantDelay(50))
		for _, name := range []string{"r2", "r3", "r4", "r5", "r6"} {
			m.InjectAt(0, f.Path(name))
		}
		if variant == 1 {
			m.InjectAt(0, f.Path("r1"))
			m.WithdrawAt(2000, f.Path("r1"))
		}
		mres := m.Run(0)
		if !mres.Quiesced {
			t.Fatalf("modified variant %d did not quiesce", variant)
		}
		finals = append(finals, mres.Best)
	}
	for u := range finals[0] {
		if finals[0][u] != finals[1][u] {
			t.Fatalf("modified outcome timing-dependent at node %d: %v vs %v",
				u, finals[0], finals[1])
		}
	}
}

func TestFig3TransientFlapping(t *testing.T) {
	// The withdraw-after-injection scenario causes transient flapping that
	// eventually settles: strictly more flaps than the no-r1 run.
	f := figures.Fig3()
	base := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(50))
	for _, name := range []string{"r2", "r3", "r4", "r5", "r6"} {
		base.InjectAt(0, f.Path(name))
	}
	bres := base.Run(0)

	flappy := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(50))
	flappy.InjectAll()
	flappy.WithdrawAt(2000, f.Path("r1"))
	fres := flappy.Run(0)
	if !bres.Quiesced || !fres.Quiesced {
		t.Fatal("runs did not quiesce")
	}
	if fres.Flaps <= bres.Flaps {
		t.Fatalf("injection episode should cause extra flaps: %d vs %d", fres.Flaps, bres.Flaps)
	}
}

func TestFig3StaggeredInjectionEchoOscillation(t *testing.T) {
	// The Table 1 reproduction: staggering C's two injections by less than
	// the (constant) session delay puts a correction update permanently in
	// flight behind the announcement it corrects. B flips on each of the
	// pair, emits its own staggered pair, and the echo sustains itself as
	// long as the timing coincidence (constant delays) persists.
	f := figures.Fig3()
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(50))
	for _, name := range []string{"r2", "r3", "r4", "r5"} {
		s.InjectAt(0, f.Path(name))
	}
	s.InjectAt(5, f.Path("r6")) // C announces r5 first, then corrects to r6
	res := s.Run(3000)
	if res.Quiesced {
		t.Fatalf("staggered lockstep run quiesced: %+v", res)
	}
	if res.Flaps < 50 {
		t.Fatalf("expected sustained echo flapping, got %d flaps", res.Flaps)
	}

	// Break the coincidence: jittered delays eventually land the pair in
	// the same instant, the batch coalesces, and the oscillation dies —
	// which is exactly why the paper calls these oscillations transient.
	s2 := New(f.Sys, protocol.Classic, selection.Options{}, MustRandomDelay(3, 40, 60))
	for _, name := range []string{"r2", "r3", "r4", "r5"} {
		s2.InjectAt(0, f.Path(name))
	}
	s2.InjectAt(5, f.Path("r6"))
	res2 := s2.Run(200000)
	if !res2.Quiesced {
		t.Fatalf("jittered run did not quiesce: %+v", res2)
	}

	// The modified protocol shrugs the same staggering off entirely.
	m := New(f.Sys, protocol.Modified, selection.Options{}, ConstantDelay(50))
	for _, name := range []string{"r2", "r3", "r4", "r5"} {
		m.InjectAt(0, f.Path(name))
	}
	m.InjectAt(5, f.Path("r6"))
	mres := m.Run(0)
	if !mres.Quiesced {
		t.Fatalf("modified staggered run did not quiesce: %+v", mres)
	}
}

func TestModifiedDeterministicAcrossRandomDelays(t *testing.T) {
	// E10 at the message level: the modified protocol's outcome is
	// identical for every random delay seed on every figure.
	for _, tc := range []struct {
		name string
		fig  *figures.Fig
	}{
		{"Fig1a", figures.Fig1a()},
		{"Fig1b", figures.Fig1b()},
		{"Fig2", figures.Fig2()},
		{"Fig3", figures.Fig3()},
		{"Fig14", figures.Fig14()},
	} {
		var ref []bgp.PathID
		for seed := int64(1); seed <= 10; seed++ {
			s := New(tc.fig.Sys, protocol.Modified, selection.Options{}, MustRandomDelay(seed, 1, 50))
			s.InjectAll()
			res := s.Run(0)
			if !res.Quiesced {
				t.Fatalf("%s seed %d: did not quiesce", tc.name, seed)
			}
			if ref == nil {
				ref = res.Best
				continue
			}
			for u := range ref {
				if res.Best[u] != ref[u] {
					t.Fatalf("%s seed %d: outcome differs at node %d", tc.name, seed, u)
				}
			}
		}
	}
}

func TestWithdrawalFlushesInMsgsim(t *testing.T) {
	f := figures.Fig14()
	s := New(f.Sys, protocol.Modified, selection.Options{}, ConstantDelay(2))
	s.InjectAll()
	s.Run(0)
	if !s.Possible(f.Node("c1")).Contains(f.Path("r2")) {
		t.Fatal("precondition: c1 lacks r2")
	}
	s.WithdrawAt(s.Now()+1, f.Path("r2"))
	res := s.Run(0)
	if !res.Quiesced {
		t.Fatal("did not quiesce after withdrawal")
	}
	for u := 0; u < f.Sys.N(); u++ {
		if s.Possible(bgp.NodeID(u)).Contains(f.Path("r2")) {
			t.Fatalf("node %d retains withdrawn path", u)
		}
	}
	if res.Best[f.Node("c1")] != f.Path("r1") {
		t.Fatalf("c1 best = p%d after withdrawal, want r1", res.Best[f.Node("c1")])
	}
}

func TestObserverTraces(t *testing.T) {
	f := figures.Fig14()
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(1))
	var lines []string
	render := trace.NewRouterEventRenderer(f.Sys, false)
	s.ObserveEvents(func(ev router.Event) { lines = append(lines, render(ev)) })
	s.InjectAll()
	s.Run(0)
	if len(lines) == 0 {
		t.Fatal("no trace lines")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "learns") || !strings.Contains(joined, "announce") {
		t.Fatalf("trace missing expected events:\n%s", joined)
	}
}

func TestMRAISlowsButDoesNotKillFig3Echo(t *testing.T) {
	// A negative result worth documenting: send-triggered MRAI (wait W
	// after each UPDATE before the next one to the same peer) merely
	// *stretches* the staggered-injection echo — the correction is
	// deferred to exactly the window boundary, so the announce/correct
	// pair survives with its separation re-clocked to W. Rate limiting
	// does not substitute for the paper's protocol fix; only timing jitter
	// (or the modified protocol) ends the oscillation.
	f := figures.Fig3()
	mk := func(mrai int64) Result {
		s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(50))
		s.SetMRAI(mrai)
		for _, name := range []string{"r2", "r3", "r4", "r5"} {
			s.InjectAt(0, f.Path(name))
		}
		s.InjectAt(5, f.Path("r6"))
		return s.Run(5000)
	}
	plain := mk(0)
	if plain.Quiesced {
		t.Fatalf("without MRAI the echo should persist: %+v", plain)
	}
	damped := mk(300) // far above the 50-tick delay
	if damped.Quiesced {
		t.Fatalf("send-triggered MRAI unexpectedly damped the echo: %+v", damped)
	}
	// The same number of events now spans a much longer virtual time: the
	// churn rate dropped even though the oscillation itself survives.
	if damped.Time <= plain.Time {
		t.Fatalf("MRAI did not stretch the oscillation period: %d vs %d", damped.Time, plain.Time)
	}
}

func TestMRAIDoesNotMaskPersistentOscillation(t *testing.T) {
	f := figures.Fig1a()
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(5))
	s.SetMRAI(40)
	s.InjectAll()
	res := s.Run(20000)
	if res.Quiesced {
		t.Fatalf("Fig1a quiesced with MRAI: %+v best=%v", res, res.Best)
	}
}

func TestMRAIPreservesOutcomeAndSavesMessages(t *testing.T) {
	f := figures.Fig3()
	run := func(mrai int64) Result {
		s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(50))
		s.SetMRAI(mrai)
		s.InjectAll()
		s.WithdrawAt(2000, f.Path("r1"))
		return s.Run(0)
	}
	plain := run(0)
	damped := run(200)
	if !plain.Quiesced || !damped.Quiesced {
		t.Fatal("runs did not quiesce")
	}
	for u := range plain.Best {
		if plain.Best[u] != damped.Best[u] {
			t.Fatalf("MRAI changed the outcome at node %d: p%d vs p%d",
				u, plain.Best[u], damped.Best[u])
		}
	}
	if damped.Messages > plain.Messages {
		t.Fatalf("MRAI increased messages: %d vs %d", damped.Messages, plain.Messages)
	}
}

func TestSetMRAINegativeClamps(t *testing.T) {
	f := figures.Fig14()
	s := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(1))
	s.SetMRAI(-5)
	s.InjectAll()
	if res := s.Run(0); !res.Quiesced {
		t.Fatal("negative MRAI broke the run")
	}
}

func TestDelayHelpers(t *testing.T) {
	c := ConstantDelay(7)
	if c(0, 1, 0) != 7 {
		t.Fatal("ConstantDelay wrong")
	}
	r, err := RandomDelay(1, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d := r(0, 1, i)
		if d < 3 || d > 9 {
			t.Fatalf("RandomDelay out of range: %d", d)
		}
	}
	deg, err := RandomDelay(1, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if deg(0, 1, 0) != 5 {
		t.Fatal("degenerate range should return min")
	}
}

// TestRandomDelayValidatesRange is the regression test for the reversed /
// negative range bug: both must fail loudly at construction instead of
// panicking deep in the scheduler (rand.Int63n on a non-positive span).
func TestRandomDelayValidatesRange(t *testing.T) {
	if _, err := RandomDelay(1, 9, 3); err == nil {
		t.Fatal("reversed range accepted")
	} else if !strings.Contains(err.Error(), "reversed") {
		t.Fatalf("reversed-range error not descriptive: %v", err)
	}
	if _, err := RandomDelay(1, -2, 5); err == nil {
		t.Fatal("negative min accepted")
	} else if !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative-min error not descriptive: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRandomDelay did not panic on a bad range")
		}
	}()
	MustRandomDelay(1, 9, 3)
}

// TestScheduleRejectsUnknownRoute is the regression test for schedules
// naming a prefix the sim does not carry or a path the prefix lacks: they
// used to queue silently and crash Run on a nil System thousands of events
// later (or, with 32-bit event fields, be truncated into a real path). The
// panic must come from the scheduling call itself, name the prefix and
// the path, and leave nothing queued.
func TestScheduleRejectsUnknownRoute(t *testing.T) {
	f := figures.Fig1a()
	n := bgp.PathID(f.Sys.NumExits())
	cases := []struct {
		name string
		call func(*Sim)
		want string
	}{
		{"inject unknown prefix", func(s *Sim) { s.InjectPrefixAt(0, 7, 0) }, "prefix 7 path 0"},
		{"withdraw unknown prefix", func(s *Sim) { s.WithdrawPrefixAt(3, 9, 1) }, "prefix 9 path 1"},
		{"inject path past the last", func(s *Sim) { s.InjectAt(0, n) }, fmt.Sprintf("prefix 0 path %d", n)},
		{"withdraw negative path", func(s *Sim) { s.WithdrawAt(0, -1) }, "prefix 0 path -1"},
		{"path beyond 32 bits", func(s *Sim) { s.InjectPrefixAt(0, 0, 1<<32) }, "prefix 0 path 4294967296"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(f.Sys, protocol.Modified, selection.Options{}, ConstantDelay(1))
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("scheduled without complaint")
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
						t.Fatalf("panic %q does not name %q", msg, c.want)
					}
				}()
				c.call(s)
			}()
			if s.queue.len() != 0 {
				t.Fatalf("a rejected schedule left %d events queued", s.queue.len())
			}
		})
	}
}

func TestFIFOOrderingPreserved(t *testing.T) {
	// Even with wildly varying raw delays, per-session messages must not
	// overtake each other; outcome equals the constant-delay outcome on a
	// deterministic convergent figure.
	f := figures.Fig14()
	jitter := MustRandomDelay(42, 0, 100)
	s := New(f.Sys, protocol.Classic, selection.Options{}, jitter)
	s.InjectAll()
	res := s.Run(0)
	if !res.Quiesced {
		t.Fatal("did not quiesce")
	}
	ref := New(f.Sys, protocol.Classic, selection.Options{}, ConstantDelay(1))
	ref.InjectAll()
	rres := ref.Run(0)
	for u := range res.Best {
		if res.Best[u] != rres.Best[u] {
			t.Fatalf("jittered run differs at node %d", u)
		}
	}
}
