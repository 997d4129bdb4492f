package speaker

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
)

func TestCodecByName(t *testing.T) {
	for name, want := range map[string]string{"": "private", "private": "private", "bgp4": "bgp4"} {
		c, err := CodecByName(name)
		if err != nil || c.Name() != want {
			t.Fatalf("CodecByName(%q) = %v, %v", name, c, err)
		}
	}
	_, err := CodecByName("morse")
	if err == nil || !strings.Contains(err.Error(), "morse") {
		t.Fatalf("unknown codec error: %v", err)
	}
}

// startNetCodec builds and starts a network under the given codec.
func startNetCodec(t *testing.T, fig *figures.Fig, policy protocol.Policy, codec Codec) *Network {
	t.Helper()
	n := New(fig.Sys, policy, selection.Options{})
	n.SetCodec(codec)
	if err := n.Start(); err != nil {
		t.Fatalf("Start under %s: %v", codec.Name(), err)
	}
	t.Cleanup(n.Stop)
	return n
}

// TestCrossCodecFigures is the cross-codec differential on real sessions:
// every paper figure, run to quiescence under the Modified policy, must
// settle on the identical best-route vector whichever wire format carried
// the UPDATEs — the codec is pure transport.
func TestCrossCodecFigures(t *testing.T) {
	for _, entry := range figures.All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			t.Parallel()
			results := map[string][]bgp.PathID{}
			for _, codec := range []Codec{PrivateCodec, BGP4} {
				fig := entry.Build()
				n := startNetCodec(t, fig, protocol.Modified, codec)
				n.InjectAll()
				if !n.WaitQuiesce(quiesceTimeout, settle) {
					t.Fatalf("%s under %s did not quiesce", entry.Name, codec.Name())
				}
				results[codec.Name()] = n.BestAllFor(0)
				c := n.Counters()
				if c.BadFrames != 0 || c.Notifs != 0 || c.HoldExpiries != 0 {
					t.Fatalf("%s under %s: session faults on a healthy run: %+v", entry.Name, codec.Name(), c)
				}
			}
			if !reflect.DeepEqual(results["private"], results["bgp4"]) {
				t.Fatalf("codecs disagree on %s:\nprivate %v\nbgp4    %v",
					entry.Name, results["private"], results["bgp4"])
			}
		})
	}
}

// eventCollector subscribes to the typed event stream and lets tests wait
// for a given kind.
type eventCollector struct {
	mu  sync.Mutex
	evs []router.Event
}

func (c *eventCollector) sink(ev router.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *eventCollector) find(kind router.EventKind) (router.Event, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range c.evs {
		if ev.Kind == kind {
			return ev, true
		}
	}
	return router.Event{}, false
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// garbageInto grabs one live session of node u and writes garbage into its
// stream, corrupting what the peer reads next.
func garbageInto(t *testing.T, n *Network, u bgp.NodeID) {
	t.Helper()
	sp := n.speakers[u]
	sp.mu.Lock()
	var sess *session
	for _, s := range sp.sessions {
		sess = s
		break
	}
	sp.mu.Unlock()
	if sess == nil {
		t.Fatal("node has no sessions")
	}
	if _, err := sess.conn.Write(make([]byte, 64)); err != nil {
		t.Fatalf("inject garbage: %v", err)
	}
}

// TestBadFrameBGP4: a corrupt frame on an established bgp4 session must be
// counted, surfaced as a BadFrame event, answered with a NOTIFICATION
// (which the sender sees as NotificationReceived), and end in PeerDown on
// both sides — never a silent stall.
func TestBadFrameBGP4(t *testing.T) {
	fig := figures.Fig14()
	n := New(fig.Sys, protocol.Modified, selection.Options{})
	n.SetCodec(BGP4)
	var col eventCollector
	n.Subscribe(col.sink)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce")
	}

	garbageInto(t, n, fig.Node("c1"))

	waitFor(t, 5*time.Second, func() bool {
		c := n.Counters()
		return c.BadFrames >= 1 && c.Notifs >= 1
	}, "BadFrames and Notifs counters")
	if ev, ok := col.find(router.BadFrame); !ok {
		t.Fatal("no BadFrame event dispatched")
	} else if ev.Code != 1 {
		// Garbage fails the marker check: NOTIFICATION 1/1 (RFC 4271 §6.1).
		t.Fatalf("BadFrame event carries NOTIFICATION %d/%d, want code 1", ev.Code, ev.Subcode)
	}
	if ev, ok := col.find(router.NotificationReceived); !ok {
		t.Fatal("no NotificationReceived event on the notified side")
	} else if ev.Code != 1 {
		t.Fatalf("peer saw NOTIFICATION %d/%d, want code 1", ev.Code, ev.Subcode)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, ok := col.find(router.PeerDown)
		return ok
	}, "PeerDown after the corrupt frame")
}

// TestBadFramePrivate: the private codec has no NOTIFICATION to send, but
// corruption must still be counted and surfaced (the silent-EOF conflation
// this suite pins down), and the session must still die.
func TestBadFramePrivate(t *testing.T) {
	fig := figures.Fig14()
	n := New(fig.Sys, protocol.Modified, selection.Options{})
	var col eventCollector
	n.Subscribe(col.sink)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce")
	}

	garbageInto(t, n, fig.Node("c1"))

	waitFor(t, 5*time.Second, func() bool { return n.Counters().BadFrames >= 1 }, "BadFrames counter")
	if _, ok := col.find(router.BadFrame); !ok {
		t.Fatal("no BadFrame event dispatched")
	}
	waitFor(t, 5*time.Second, func() bool {
		_, ok := col.find(router.PeerDown)
		return ok
	}, "PeerDown after the corrupt frame")
	if c := n.Counters(); c.Notifs != 0 {
		t.Fatalf("private codec cannot receive NOTIFICATIONs, counted %d", c.Notifs)
	}
}

// TestHoldTimerExpiry: with keepalives suppressed, a sub-second hold time
// must expire, be counted and surfaced, and tear the sessions down with a
// hold-expired NOTIFICATION (code 4).
func TestHoldTimerExpiry(t *testing.T) {
	fig := figures.Fig14()
	n := New(fig.Sys, protocol.Modified, selection.Options{})
	n.SetCodec(BGP4)
	n.holdTime = 300 * time.Millisecond
	n.noKeepalives = true
	var col eventCollector
	n.Subscribe(col.sink)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	waitFor(t, 10*time.Second, func() bool { return n.Counters().HoldExpiries >= 1 }, "hold timer expiry")
	if ev, ok := col.find(router.HoldExpired); !ok {
		t.Fatal("no HoldExpired event dispatched")
	} else if ev.Code != 4 {
		t.Fatalf("HoldExpired event code %d, want 4", ev.Code)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, ok := col.find(router.PeerDown)
		return ok
	}, "PeerDown after hold expiry")
}

// TestKeepalivesSustainHold: with keepalives running (the default), the
// same sub-second hold time never expires — the generator is what keeps
// idle sessions alive.
func TestKeepalivesSustainHold(t *testing.T) {
	fig := figures.Fig14()
	n := New(fig.Sys, protocol.Modified, selection.Options{})
	n.SetCodec(BGP4)
	n.holdTime = 600 * time.Millisecond
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.InjectAll()
	if !n.WaitQuiesce(quiesceTimeout, settle) {
		t.Fatal("did not quiesce")
	}
	// Idle across several hold periods; only keepalives cross the wire.
	time.Sleep(2 * time.Second)
	if c := n.Counters(); c.HoldExpiries != 0 {
		t.Fatalf("%d hold expiries despite keepalives", c.HoldExpiries)
	}
	if got, want := n.BestFor(0, fig.Node("c1")), fig.Path("r2"); got != want {
		t.Fatalf("routing decayed while idle: c1 best = p%d, want p%d", got, want)
	}
}

// TestCodecNameAndHoldAccessors covers codec selection: SetCodec and its
// nil fallback to the private codec.
func TestCodecNameAndHoldAccessors(t *testing.T) {
	fig := figures.Fig14()
	n := New(fig.Sys, protocol.Modified, selection.Options{})
	if n.codec.Name() != "private" {
		t.Fatalf("default codec %q", n.codec.Name())
	}
	n.SetCodec(BGP4)
	if n.codec.Name() != "bgp4" {
		t.Fatalf("codec after SetCodec %q", n.codec.Name())
	}
	n.SetCodec(nil)
	if n.codec.Name() != "private" {
		t.Fatalf("nil codec must fall back to private, got %q", n.codec.Name())
	}
}
