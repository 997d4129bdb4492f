package speaker

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
)

// checkTCPLedger asserts the quiescence accounting identity at rest.
func checkTCPLedger(t *testing.T, c router.Snapshot) {
	t.Helper()
	if c.Sent != c.Received+c.Rejected+c.Dropped {
		t.Fatalf("ledger broken: sent=%d != received=%d + rejected=%d + dropped=%d",
			c.Sent, c.Received, c.Rejected, c.Dropped)
	}
}

// TestTCPQuiescedAfterDrops is the regression test for the Quiesced
// false-negative: once any UPDATE dies on a session, Sent can never equal
// Received again, so the old Sent != Received formula reported the network
// as permanently unsettled. With the ledger formula, dropped messages are
// accounted and quiescence is reachable once the fault horizon passes.
func TestTCPQuiescedAfterDrops(t *testing.T) {
	f := figures.Fig1a()
	n := New(f.Sys, protocol.Modified, selection.Options{})
	if err := n.SetFaults(&faults.Plan{Seed: 11, Drop: 0.9, Horizon: 400}); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatalf("did not quiesce after fault horizon: %+v", n.Counters())
	}
	c := n.Counters()
	if c.FaultDrops == 0 {
		t.Fatal("drop-heavy plan dropped nothing; the regression test is vacuous")
	}
	if c.Dropped == 0 {
		t.Fatal("fault drops not accounted in Dropped")
	}
	checkTCPLedger(t, c)
}

// TestTCPSessionResetReconverges: a real TCP session is torn down mid-run,
// both ends flush the peer's routes (RFC 4271 §8.2), the session redials,
// and the network re-converges to the exact fault-free outcome of the
// modified protocol (Lemma 7.4).
func TestTCPSessionResetReconverges(t *testing.T) {
	f := figures.Fig1a()
	base := startNet(t, f, protocol.Modified)
	base.InjectAll()
	if !base.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("baseline did not quiesce")
	}
	baseline := base.BestAllFor(0)

	u := bgp.NodeID(0)
	w := f.Sys.Peers(u)[0]
	n := New(f.Sys, protocol.Modified, selection.Options{})
	if err := n.SetFaults(&faults.Plan{
		Resets:  []faults.Reset{{A: u, B: w, At: 60, Downtime: 50}},
		Horizon: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	var sawDown, sawUp atomic.Bool // set on speaker goroutines
	n.Subscribe(func(ev router.Event) {
		switch ev.Kind {
		case router.PeerDown:
			sawDown.Store(true)
		case router.PeerUp:
			sawUp.Store(true)
		}
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.InjectAll()

	// Wait for the reset to have actually fired before asking for rest:
	// quiescence before t=60ms is legitimate and would skip the scenario.
	deadline := time.Now().Add(5 * time.Second)
	for n.Counters().Resets == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduled reset never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatalf("did not quiesce after reset: %+v", n.Counters())
	}
	c := n.Counters()
	if c.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", c.Resets)
	}
	if c.Flushed == 0 {
		t.Fatal("reset flushed no routes; the session carried state at t=60ms")
	}
	if !sawDown.Load() || !sawUp.Load() {
		t.Fatalf("missing peer lifecycle events: down=%v up=%v", sawDown.Load(), sawUp.Load())
	}
	got := n.BestAllFor(0)
	for i := range got {
		if got[i] != baseline[i] {
			t.Fatalf("router %d re-converged to p%d, fault-free run chose p%d",
				i, got[i], baseline[i])
		}
	}
	checkTCPLedger(t, c)
}

// TestTCPChaosReconverges: drops, duplicates and delays together, all
// ceasing by the horizon — the modified protocol still lands on the unique
// Lemma 7.4 configuration. (Reorder fates are no-ops over TCP.)
func TestTCPChaosReconverges(t *testing.T) {
	f := figures.Fig1a()
	base := startNet(t, f, protocol.Modified)
	base.InjectAll()
	if !base.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("baseline did not quiesce")
	}
	baseline := base.BestAllFor(0)

	n := New(f.Sys, protocol.Modified, selection.Options{})
	if err := n.SetFaults(&faults.Plan{
		Seed: 5, Drop: 0.3, Duplicate: 0.2, Delay: 0.4, MaxExtraDelay: 25,
		Horizon: 600,
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatalf("did not quiesce under chaos: %+v", n.Counters())
	}
	got := n.BestAllFor(0)
	for i := range got {
		if got[i] != baseline[i] {
			t.Fatalf("router %d at p%d under chaos, fault-free run chose p%d",
				i, got[i], baseline[i])
		}
	}
	checkTCPLedger(t, n.Counters())
}

// TestTCPStopWithOutstandingTimers is the regression test for the
// scheduleFlush/Close ordering race: Stop while MRAI deferral and retry
// timers are still armed must neither deadlock nor trip the race detector
// (run under -race, -count=3 in CI).
func TestTCPStopWithOutstandingTimers(t *testing.T) {
	f := figures.Fig1a()
	for trial := 0; trial < 5; trial++ {
		n := New(f.Sys, protocol.Modified, selection.Options{})
		n.SetMRAI(30)
		if err := n.SetFaults(&faults.Plan{Seed: int64(trial), Drop: 0.5, Horizon: 5000}); err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		n.InjectAll()
		time.Sleep(time.Duration(trial*7) * time.Millisecond)
		n.Quiesced() // probe concurrently with armed timers
		n.Stop()
	}
}

// TestTCPSetFaultsValidates: plans are validated against the topology.
func TestTCPSetFaultsValidates(t *testing.T) {
	f := figures.Fig1a()
	n := New(f.Sys, protocol.Modified, selection.Options{})
	nn := f.Sys.N()
	if err := n.SetFaults(&faults.Plan{
		Resets: []faults.Reset{{A: bgp.NodeID(nn), B: 0, At: 1, Downtime: 1}},
	}); err == nil {
		t.Fatal("out-of-topology reset accepted")
	}
	if err := n.SetFaults(&faults.Plan{Duplicate: -0.5}); err == nil {
		t.Fatal("negative probability accepted")
	}
	if err := n.SetFaults(&faults.Plan{Reorder: 1.5}); err == nil {
		t.Fatal("out-of-range reorder probability accepted")
	}
	// TCP cannot reorder: the plan goes in with Reorder zeroed and every
	// other field intact.
	p := &faults.Plan{Seed: 3, Drop: 0.1, Reorder: 0.5, Horizon: 100}
	if err := n.SetFaults(p); err != nil {
		t.Fatal(err)
	}
	if got := n.dom.Faults(); got.Reorder != 0 || got.Seed != 3 || got.Drop != 0.1 || got.Horizon != 100 || p.Reorder != 0.5 {
		t.Fatalf("installed plan %+v from %+v, want the caller's plan with Reorder zeroed", got, p)
	}
	if err := n.SetFaults(nil); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
}

// TestTCPUnqueuedDuplicateIsBooked: a duplicate fate is booked (Sent,
// FaultDups, FaultDuplicate) even when its copy cannot join the session's
// full outbound queue; the copy is then counted Dropped, like the
// original, so the ledger closes.
func TestTCPUnqueuedDuplicateIsBooked(t *testing.T) {
	f := figures.Fig1a()
	n := New(f.Sys, protocol.Modified, selection.Options{})
	if err := n.SetFaults(&faults.Plan{Seed: 1, Duplicate: 1}); err != nil {
		t.Fatal(err)
	}
	var col eventCollector
	n.Subscribe(col.sink)
	exit := f.Sys.Exits()[0]
	sp := n.speakers[exit.ExitPoint]
	w := f.Sys.Peers(sp.id)[0]
	// A session whose write loop never runs, its queue already full.
	sess := newSession(w, nil, n.newSessionCodec(sp.id, w))
	for len(sess.outQ) < cap(sess.outQ) {
		sess.outQ <- outMsg{buf: outBufPool.Get().(*[]byte)}
	}
	sp.sessions[w] = sess
	t.Cleanup(func() {
		delete(sp.sessions, w) // it has no connection for Stop to close
		n.Stop()
	})
	sp.core.Inject(0, 0, exit.ID)
	sp.refresh()
	sp.emux.Flush()
	c := n.Counters()
	if c.FaultDups != 1 || c.Sent != int64(len(f.Sys.Peers(sp.id)))+1 {
		t.Fatalf("counters %+v: want the copy booked once, on top of one send per peer", c)
	}
	if _, ok := col.find(router.FaultDuplicate); !ok {
		t.Fatal("no FaultDuplicate event for the booked copy")
	}
	checkTCPLedger(t, c)
}
