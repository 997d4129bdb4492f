package speaker

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/wire"
)

// kinds returns every collected event of one kind.
func (c *eventCollector) kinds(kind router.EventKind) []router.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []router.Event
	for _, ev := range c.evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestStopLeavesNothingRunning: Stop with an MRAI deferral, a drop retry
// and a mid-downtime reset all outstanding must leave no goroutine behind
// and every slot of the timers gauge released once the orphaned timers have
// fired into the closed network.
func TestStopLeavesNothingRunning(t *testing.T) {
	f := figures.Fig1a()
	a := bgp.NodeID(0)
	b := f.Sys.Peers(a)[0]
	for _, codec := range []Codec{PrivateCodec, BGP4} {
		base := runtime.NumGoroutine()
		n := New(f.Sys, protocol.Modified, selection.Options{})
		n.SetCodec(codec)
		n.SetMRAI(30)
		if err := n.SetFaults(&faults.Plan{Seed: 3, Drop: 0.5, Horizon: 5000,
			Resets: []faults.Reset{{A: a, B: b, At: 40, Downtime: 600}}}); err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		n.InjectAll()
		waitFor(t, 5*time.Second, func() bool {
			c := n.Counters()
			return c.Resets == 1 && c.FaultDrops > 0 && c.Deferrals > 0
		}, "a reset, a fault drop and an MRAI deferral under "+codec.Name())
		if n.timers.Load() == 0 {
			t.Fatalf("%s: timers gauge reads 0 mid-downtime", codec.Name())
		}
		n.Stop()
		if n.speakers[a].sessions[b] != nil {
			t.Fatalf("%s: Stop did not land mid-downtime; the scenario is vacuous", codec.Name())
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base || n.timers.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: after Stop: %d goroutines (baseline %d), timers gauge %d",
					codec.Name(), runtime.NumGoroutine(), base, n.timers.Load())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// forgingCodec makes one node identify itself as another in its handshake
// and records the connections the handshakes ran on.
type forgingCodec struct {
	Codec
	liar, claims bgp.NodeID
	mu           *sync.Mutex
	conns        *[]net.Conn
}

func (f forgingCodec) NewSession(info SessionInfo) SessionCodec {
	if info.LocalNode == f.liar {
		info.LocalNode = f.claims
	}
	return &recordingSession{SessionCodec: f.Codec.NewSession(info), f: f}
}

type recordingSession struct {
	SessionCodec
	f forgingCodec
}

func (r *recordingSession) Handshake(conn net.Conn, dialer bool) (bgp.NodeID, error) {
	r.f.mu.Lock()
	*r.f.conns = append(*r.f.conns, conn)
	r.f.mu.Unlock()
	return r.SessionCodec.Handshake(conn, dialer)
}

// TestConnectVerifiesIdentityBothEnds: an end that identifies as the wrong
// node must fail connect — whichever end lies, whichever end is asked —
// with both connections closed and no session returned. The private
// acceptor sends nothing in its handshake, so there only the dialer can
// lie; the accept side trusted whatever the OPEN carried before.
func TestConnectVerifiesIdentityBothEnds(t *testing.T) {
	f := figures.Fig14()
	a, b, other := bgp.NodeID(0), bgp.NodeID(1), bgp.NodeID(2)
	for _, tc := range []struct {
		codec Codec
		liar  bgp.NodeID
		ok    bool
	}{
		{PrivateCodec, -1, true}, {BGP4, -1, true},
		{PrivateCodec, a, false}, {BGP4, a, false}, {BGP4, b, false},
	} {
		var conns []net.Conn
		n := New(f.Sys, protocol.Modified, selection.Options{})
		n.SetCodec(forgingCodec{Codec: tc.codec, liar: tc.liar, claims: other, mu: new(sync.Mutex), conns: &conns})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.ln = ln
		sa, sb, err := n.connect(a, b)
		n.Stop()
		if tc.ok {
			if err != nil || sa.peer != b || sb.peer != a {
				t.Fatalf("%s honest connect: %v", tc.codec.Name(), err)
			}
			sa.conn.Close()
			sb.conn.Close()
			continue
		}
		if err == nil || sa != nil || sb != nil {
			t.Fatalf("%s: node %d posing as %d got a session (err %v)", tc.codec.Name(), tc.liar, other, err)
		}
		if len(conns) != 2 {
			t.Fatalf("%s: %d handshakes ran, want one per end", tc.codec.Name(), len(conns))
		}
		for _, c := range conns {
			if _, err := c.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("%s liar %d: connection left open after a failed connect (write: %v)", tc.codec.Name(), tc.liar, err)
			}
		}
	}
}

// forgeLoop makes from send to its peer an UPDATE announcing a route whose
// exit point is that peer: under bgp4 it carries the receiver's own
// ORIGINATOR_ID, which RFC 4456 §8 loop detection must drop. The message
// is accounted like any other, so the ledger still closes.
func forgeLoop(t *testing.T, n *Network, from, to bgp.NodeID) {
	t.Helper()
	sp := n.speakers[from]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sess := sp.sessions[to]
	if sess == nil {
		t.Fatalf("no session %d-%d", from, to)
	}
	n.counters.Sent.Add(1)
	if err := sess.enqueueUpdate(&wire.Update{Announced: []wire.RouteRecord{{PathID: 9, ExitPoint: uint32(to)}}}, time.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestRouteLoopNamesThePeer: a RouteLoop event must carry the session peer
// the looped route came from — on the dialing end and the accepting end
// alike, on sessions Start established and on one a reset reopened.
func TestRouteLoopNamesThePeer(t *testing.T) {
	f := figures.Fig14()
	a := bgp.NodeID(0)
	b := f.Sys.Peers(a)[0] // a < b: a dialed, b accepted
	n := New(f.Sys, protocol.Modified, selection.Options{})
	n.SetCodec(BGP4)
	var col eventCollector
	n.Subscribe(col.sink)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.InjectAll()

	check := func(incarnation string, want int) {
		forgeLoop(t, n, a, b)
		forgeLoop(t, n, b, a)
		waitFor(t, 5*time.Second, func() bool { return len(col.kinds(router.RouteLoop)) >= want },
			"RouteLoop events on the "+incarnation+" session")
		loops := col.kinds(router.RouteLoop)
		if len(loops) != want {
			t.Fatalf("%s session: %d RouteLoop events, want %d", incarnation, len(loops), want)
		}
		seen := map[[2]bgp.NodeID]bool{}
		for _, ev := range loops[want-2:] {
			seen[[2]bgp.NodeID{ev.Node, ev.Peer}] = true
			if ev.Path != 9 {
				t.Fatalf("RouteLoop names path %d, want 9", ev.Path)
			}
		}
		if !seen[[2]bgp.NodeID{b, a}] || !seen[[2]bgp.NodeID{a, b}] {
			t.Fatalf("%s session: RouteLoop events %+v do not name the sending peer on both ends", incarnation, loops[want-2:])
		}
	}
	check("Start-established", 2)
	n.resetSession(faults.Reset{A: a, B: b, Downtime: 30})
	waitFor(t, 5*time.Second, func() bool { return len(col.kinds(router.PeerUp)) == 2 }, "the reset session to reopen")
	check("reopened", 4)
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatalf("did not quiesce: %+v", n.Counters())
	}
	c := n.Counters()
	if c.RouteLoops != 4 {
		t.Fatalf("RouteLoops = %d, want 4", c.RouteLoops)
	}
	checkTCPLedger(t, c)
}

// TestReopenFailureIsLoud: when a reset session cannot be re-established —
// here the bring-up listener is gone, so the reopen's dial is refused —
// the failure is counted and surfaced as a typed event, and the network
// still quiesces with the session down.
func TestReopenFailureIsLoud(t *testing.T) {
	f := figures.Fig1a()
	a := bgp.NodeID(0)
	b := f.Sys.Peers(a)[0]
	n := New(f.Sys, protocol.Modified, selection.Options{})
	if err := n.SetFaults(&faults.Plan{Horizon: 1000,
		Resets: []faults.Reset{{A: a, B: b, At: 60, Downtime: 40}}}); err != nil {
		t.Fatal(err)
	}
	var col eventCollector
	n.Subscribe(col.sink)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.ln.Close()
	n.InjectAll()
	// The counter moves before the event is dispatched: wait for both.
	waitFor(t, 5*time.Second, func() bool {
		_, ok := col.find(router.ReopenFailed)
		return ok && n.Counters().ReopenFailures == 1
	}, "the reopen to fail")
	if ev, ok := col.find(router.ReopenFailed); !ok || ev.Node != a || ev.Peer != b {
		t.Fatalf("ReopenFailed event = %+v (found %v), want session %d-%d", ev, ok, a, b)
	}
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatalf("did not quiesce with the session down: %+v", n.Counters())
	}
	if _, up := col.find(router.PeerUp); up {
		t.Fatal("PeerUp after a failed reopen")
	}
	checkTCPLedger(t, n.Counters())
}
