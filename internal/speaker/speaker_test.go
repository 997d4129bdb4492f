package speaker

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
)

const (
	quiesceTimeout = 10 * time.Second
	settle         = 150 * time.Millisecond
)

func startNet(t *testing.T, fig *figures.Fig, policy protocol.Policy) *Network {
	t.Helper()
	n := New(fig.Sys, policy, selection.Options{})
	if err := n.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(n.Stop)
	return n
}

func TestTCPFig14Classic(t *testing.T) {
	f := figures.Fig14()
	n := startNet(t, f, protocol.Classic)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce")
	}
	if n.Best(f.Node("c1")) != f.Path("r1") || n.Best(f.Node("c2")) != f.Path("r2") {
		t.Fatalf("client routes = %v", n.BestAll())
	}
}

func TestTCPFig14Modified(t *testing.T) {
	f := figures.Fig14()
	n := startNet(t, f, protocol.Modified)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce")
	}
	if n.Best(f.Node("c1")) != f.Path("r2") || n.Best(f.Node("c2")) != f.Path("r1") {
		t.Fatalf("client routes = %v", n.BestAll())
	}
}

func TestTCPFig1aClassicKeepsChurning(t *testing.T) {
	f := figures.Fig1a()
	n := startNet(t, f, protocol.Classic)
	n.InjectAll()
	// The oscillating configuration must not quiesce; give it a moment
	// and check that flaps keep accumulating.
	if n.WaitQuiesce(2*time.Second, settle) {
		t.Fatalf("Fig1a quiesced under classic I-BGP (flaps=%d)", n.Counters().Flaps)
	}
	early := n.Counters().Flaps
	time.Sleep(500 * time.Millisecond)
	if late := n.Counters().Flaps; late <= early {
		t.Fatalf("flapping stalled: %d then %d", early, late)
	}
}

func TestTCPFig1aModifiedConvergesDeterministically(t *testing.T) {
	f := figures.Fig1a()
	want := map[string]bgp.PathID{
		"A": f.Path("r1"), "a1": f.Path("r1"), "a2": f.Path("r1"),
		"B": f.Path("r1"), "b1": f.Path("r3"),
	}
	// Several trials: OS scheduling varies the message order; the outcome
	// must not.
	for trial := 0; trial < 3; trial++ {
		n := New(f.Sys, protocol.Modified, selection.Options{})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		n.InjectAll()
		ok := n.WaitQuiesce(quiesceTimeout, settle)
		best := n.BestAll()
		n.Stop()
		if !ok {
			t.Fatalf("trial %d: did not quiesce", trial)
		}
		for name, p := range want {
			if best[f.Node(name)] != p {
				t.Fatalf("trial %d: %s best = p%d, want p%d", trial, name, best[f.Node(name)], p)
			}
		}
	}
}

func TestTCPWithdrawFlushes(t *testing.T) {
	f := figures.Fig14()
	n := startNet(t, f, protocol.Modified)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce after injection")
	}
	n.Withdraw(f.Path("r2"))
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce after withdrawal")
	}
	for u := 0; u < f.Sys.N(); u++ {
		if n.Speaker(bgp.NodeID(u)).PossibleFor(0).Contains(f.Path("r2")) {
			t.Fatalf("node %d retains withdrawn path", u)
		}
	}
	if n.Best(f.Node("c1")) != f.Path("r1") {
		t.Fatalf("c1 best = p%d after withdrawal", n.Best(f.Node("c1")))
	}
}

func TestTCPAgreesWithMsgsimOnFig2Modified(t *testing.T) {
	f := figures.Fig2()
	n := startNet(t, f, protocol.Modified)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce")
	}
	// The modified protocol's unique outcome (RR1 on r2, RR2 on r1).
	if n.Best(f.Node("RR1")) != f.Path("r2") || n.Best(f.Node("RR2")) != f.Path("r1") {
		t.Fatalf("outcome = %v", n.BestAll())
	}
}

func TestTCPMessagesCounted(t *testing.T) {
	f := figures.Fig14()
	n := startNet(t, f, protocol.Classic)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce")
	}
	if n.MessagesSent() == 0 {
		t.Fatal("no messages counted")
	}
}

func TestTCPStopIdempotent(t *testing.T) {
	f := figures.Fig14()
	n := New(f.Sys, protocol.Classic, selection.Options{})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	n.Stop() // second stop must not panic or hang
}
