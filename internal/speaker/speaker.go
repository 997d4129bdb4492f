// Package speaker runs an autonomous system's I-BGP speakers as real
// concurrent processes: one goroutine-backed speaker per router, TCP
// sessions on the loopback interface between every I-BGP peer pair, and
// the wire protocol of package wire on the sessions. The per-router
// operational behaviour — RIB maintenance, refresh, per-peer diff and
// coalesce, MRAI pacing — is the shared core of package router, so this
// substrate executes exactly the same decision process as the
// discrete-event simulator — but under genuine asynchrony, where the
// operating system's scheduling provides the message orderings the paper
// quantifies over.
package speaker

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/wire"
)

// inKind tags one unit of work for a speaker's main loop.
type inKind uint8

const (
	inUpdate   inKind = iota // upd arrived from peer
	inInject                 // operator: E-BGP route path for prefix learned
	inWithdraw               // operator: E-BGP route path for prefix lost
	inFlush                  // MRAI window or drop RTO for peer ran out
	inPeerDown               // session to peer died
	inPeerUp                 // session to peer re-established
)

// inbound is one unit of work for a speaker's main loop: the kind and the
// operands that kind reads.
type inbound struct {
	kind   inKind
	peer   bgp.NodeID
	prefix uint32
	path   bgp.PathID
	upd    *wire.Update
}

// outMsg is one message queued for a session's write loop, with the
// earliest wall-clock instant it may hit the wire (fault-delay fates push
// it into the future; later messages queue behind it, preserving FIFO).
// The message is pre-encoded at send time: the core's scratch Update is
// only valid while Refresh runs, so the bytes must be taken before the
// message crosses onto the session goroutine. buf comes from outBufPool
// and is recycled by whoever consumes the message (written, dropped or
// drained). ctrl marks session-machinery messages (keepalives,
// notifications) that are invisible to the UPDATE quiescence ledger;
// closeAfter tears the connection down right after the write, the
// NOTIFICATION-then-close of RFC 4271 §6.
type outMsg struct {
	buf        *[]byte
	at         time.Time
	ctrl       bool
	closeAfter bool
}

// outBufPool recycles encoded-UPDATE buffers between the speakers' send
// paths and their write loops, so a steady-state network writes messages
// without per-message allocations.
var outBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// recycleOut returns a consumed message buffer to the pool.
func recycleOut(bp *[]byte) { outBufPool.Put(bp) }

// session is one incarnation of an established I-BGP TCP session. A fault
// reset tears the incarnation down (stop closed, conn closed) and the
// reopen installs a fresh one; the written/got meters of the dead
// incarnation reconcile its in-flight losses into the Dropped counter.
type session struct {
	peer  bgp.NodeID
	conn  net.Conn
	codec SessionCodec
	outQ  chan outMsg

	stop      chan struct{} // closed when this incarnation is torn down
	readDone  chan struct{} // closed when readLoop exits
	writeDone chan struct{} // closed when writeLoop exits

	seq     int          // outbound UPDATE sequence; guarded by Speaker.mu
	written atomic.Int64 // UPDATEs successfully written to the wire
	got     atomic.Int64 // UPDATEs read off the wire by the receiver

	// downPosted latches the first peer-down cause this incarnation
	// reports (notification, hold expiry, bad frame, transport loss), so
	// the core sees exactly one PeerDown per teardown.
	downPosted atomic.Bool
}

func newSession(peer bgp.NodeID, conn net.Conn, codec SessionCodec) *session {
	return &session{
		peer:      peer,
		conn:      conn,
		codec:     codec,
		outQ:      make(chan outMsg, 1024),
		stop:      make(chan struct{}),
		readDone:  make(chan struct{}),
		writeDone: make(chan struct{}),
	}
}

// enqueue hands one encoded message to the session's write loop without
// ever blocking the caller. On a full queue the buffer is recycled and the
// caller falls back: drop-and-retry for an UPDATE, nothing for a keepalive
// (the pending traffic is liveness enough), a bare close for a NOTIFICATION.
func (sess *session) enqueue(m outMsg) bool {
	select {
	case sess.outQ <- m:
		return true
	default:
		recycleOut(m.buf)
		return false
	}
}

// Speaker is one running I-BGP speaker: a router core plus its TCP
// sessions and goroutines. It carries one RIB per destination prefix
// (single-prefix deployments use prefix 0).
type Speaker struct {
	net *Network
	id  bgp.NodeID

	mu   sync.Mutex // guards core
	core *router.Router

	// emux buffers the core's event emissions for one main-loop round
	// (handle + refresh) and flushes them as a batch: the core's events
	// reference its reusable scratch Update, which Batch deep-copies, and
	// one flush takes the network's sink lock once per round instead of
	// once per event. Batch and Flush both run on the main-loop
	// goroutine (handle/refresh emit synchronously under s.mu from there),
	// so the single-owner contract of router.Mux holds.
	emux router.Mux

	sessions map[bgp.NodeID]*session
	inbox    chan inbound
	done     chan struct{}
	wg       sync.WaitGroup
}

// BestFor returns the speaker's current best path for one prefix.
func (s *Speaker) BestFor(prefix uint32) bgp.PathID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Best(prefix)
}

// PossibleFor returns the candidate set for one prefix.
func (s *Speaker) PossibleFor(prefix uint32) bgp.PathSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Possible(prefix)
}

// AnnouncedFor returns the set the speaker offers its peers for one
// prefix, before the per-peer announcement rules.
func (s *Speaker) AnnouncedFor(prefix uint32) bgp.PathSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Announced(prefix)
}

// Upgraded reports whether this speaker switched to survivor advertisement
// for the given prefix under the Adaptive policy.
func (s *Speaker) Upgraded(prefix uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Upgraded(prefix)
}

// Network owns all speakers of one AS. It can carry several destination
// prefixes at once, each with its own exit-path table over the shared
// topology — the per-prefix independence that the Section 10 triggered
// advertisement relies on.
type Network struct {
	dom      *router.Domain
	speakers []*Speaker

	// codec selects the wire format for every session (default private);
	// holdTime is the locally proposed hold time for codecs that
	// negotiate one (0 disables the hold timer and keepalives); tests set
	// it before Start. noKeepalives suppresses keepalive generation while
	// keeping the hold timer armed — a test hook for forcing expiry.
	codec        Codec
	holdTime     time.Duration
	noKeepalives bool

	counters router.Counters
	timers   atomic.Int64 // outstanding timers (see after)

	started time.Time    // transport clock epoch, set by Start
	ln      net.Listener // the one bring-up listener, open from Start to Stop

	obsMu sync.Mutex // serialises the sinks across speaker goroutines
	mux   router.Mux // the one sink list (Subscribe); sealed at first event

	stopMu   sync.Mutex // serialises Stop against session reopens
	stopped  bool
	stopOnce sync.Once
}

// New assembles (but does not start) a single-prefix network of speakers
// for sys (the prefix is 0).
func New(sys *topology.System, policy protocol.Policy, opts selection.Options) *Network {
	n, err := NewMulti(map[uint32]*topology.System{0: sys}, policy, opts)
	if err != nil {
		panic("speaker: " + err.Error()) // single system is always consistent
	}
	return n
}

// NewMulti assembles a multi-prefix network: one System per prefix, all
// sharing the identical topology (router names, sessions and links) and
// differing only in their exit paths. Each speaker runs one RIB per
// prefix; UPDATE messages interleave prefixes on the shared sessions.
func NewMulti(systems map[uint32]*topology.System, policy protocol.Policy, opts selection.Options) (*Network, error) {
	dom, err := router.NewDomain(systems, policy, opts)
	if err != nil {
		return nil, fmt.Errorf("speaker: %w", err)
	}
	n := &Network{dom: dom, codec: PrivateCodec, holdTime: defaultHoldTime}
	for u := 0; u < dom.Base().N(); u++ {
		sp := &Speaker{
			net:      n,
			id:       bgp.NodeID(u),
			core:     dom.NewRouter(bgp.NodeID(u), &n.counters),
			sessions: map[bgp.NodeID]*session{},
			inbox:    make(chan inbound, 1024),
			done:     make(chan struct{}),
		}
		sp.core.Events(sp.emux.Batch)
		sp.emux.AddBatch(n.dispatchBatch)
		n.speakers = append(n.speakers, sp)
	}
	return n, nil
}

// Speaker returns the speaker for router u.
func (n *Network) Speaker(u bgp.NodeID) *Speaker { return n.speakers[u] }

// Counters returns the shared operational counters at this instant.
func (n *Network) Counters() router.Snapshot { return n.counters.Snapshot() }

// defaultHoldTime is the hold time proposed on codecs that negotiate one
// (RFC 4271 suggests 90 seconds).
const defaultHoldTime = 90 * time.Second

// SetCodec selects the wire format for every session. Call before Start;
// nil restores the private codec.
func (n *Network) SetCodec(c Codec) {
	if c == nil {
		c = PrivateCodec
	}
	n.codec = c
}

// newSessionCodec builds the per-session codec state for local's end of
// the session to peer.
func (n *Network) newSessionCodec(local, peer bgp.NodeID) SessionCodec {
	sys := n.dom.Base()
	return n.codec.NewSession(SessionInfo{
		LocalNode:  local,
		PeerNode:   peer,
		LocalBGPID: uint32(sys.BGPID(local)),
		HoldTime:   n.holdTime,
		BGPIDOf: func(u bgp.NodeID) (uint32, bool) {
			if int(u) < 0 || int(u) >= sys.N() {
				return 0, false
			}
			return uint32(sys.BGPID(u)), true
		},
		OnLoop: func(prefix, path uint32) {
			n.counters.RouteLoops.Add(1)
			n.dispatch(router.Event{Kind: router.RouteLoop, Time: n.now(),
				Node: local, Peer: peer, Prefix: prefix, Path: bgp.PathID(path)})
		},
	})
}

// SetMRAI sets the minimum route advertisement interval on every speaker,
// in milliseconds of wall clock (0 disables, the default). Call before
// Start.
func (n *Network) SetMRAI(ms int64) {
	for _, sp := range n.speakers {
		sp.core.SetMRAI(ms)
	}
}

// SetFaults installs a fault plan, validated against the topology, on the
// router core, which books every UPDATE's fate (router.Router.BookFate);
// the sessions apply its timing, and the plan's resets tear real TCP
// connections down and redial them. A TCP byte stream cannot reorder, so
// the plan goes in with Reorder zeroed (each decision hashes on its own, so
// no other fate moves). Call before Start; times are milliseconds.
func (n *Network) SetFaults(p *faults.Plan) error {
	if p != nil && p.Reorder > 0 {
		if err := p.Validate(n.dom.Base().N()); err != nil {
			return err
		}
		tcp := *p
		tcp.Reorder = 0
		p = &tcp
	}
	return n.dom.SetFaults(p)
}

// Subscribe registers a permanent typed-event sink on the network's event
// multiplexer, its one sink list — a trace renderer and a telemetry feed
// can watch the same run without stepping on each other. Like
// Router.Events, subscriptions must be in place before Start: once events
// flow, the multiplexer is sealed and a late Subscribe panics. Sinks are
// invoked from the speakers' goroutines, serialized by the network, so a
// printing sink needs no locking of its own; they must not call back into
// the network. A sink that wants to stop mid-run gates itself.
func (n *Network) Subscribe(fn func(router.Event)) { n.mux.Add(fn) }

// SubscribeBatch registers a permanent batch-aware sink: it receives each
// speaker main-loop round's events as one slice (valid only until it
// returns), amortising per-event overhead — telemetry feeds take one
// encoder pass per round this way. Same before-Start contract as
// Subscribe.
func (n *Network) SubscribeBatch(fn func([]router.Event)) { n.mux.AddBatch(fn) }

// dispatch delivers one transport-level event (a fault fate, a session
// death cause): a round of one.
func (n *Network) dispatch(ev router.Event) { n.dispatchBatch([]router.Event{ev}) }

// dispatchBatch delivers one round's events under a single lock
// acquisition: per-event Subscribe sinks see each event in emission order,
// batch sinks get the round whole.
func (n *Network) dispatchBatch(evs []router.Event) {
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	n.mux.DispatchBatch(evs)
}

// now is the transport clock: milliseconds since Start.
func (n *Network) now() int64 {
	if n.started.IsZero() {
		return 0
	}
	return time.Since(n.started).Milliseconds()
}

// after is the one timer path. It takes a slot in the timers gauge, arms a
// wall-clock timer, runs body when it fires and releases the slot — so
// Quiesced never reports a network with an MRAI reopen, a drop retry or a
// scheduled reset outstanding as settled. A body that arms its successor
// (reset → reopen) does so before its own slot is released: the chain
// holds the gauge above zero from the first timer to the last.
func (n *Network) after(d time.Duration, body func()) {
	n.timers.Add(1)
	time.AfterFunc(d, func() {
		body()
		n.timers.Add(-1)
	})
}

// connect is the one session bring-up path: a dials the bring-up listener,
// which accepts for b; both ends run the codec handshake concurrently
// (bgp4's OPEN exchange is symmetric and would deadlock run back to back
// on one goroutine) and each must hear the peer it expects. A failing end
// closes its connection, which fails the other end's handshake too instead
// of leaving it blocked; on failure both ends are closed and no session
// exists. Callers never overlap (Start runs before any reset; reopens
// serialise on stopMu), so the dialed connection is already queued when
// Accept is called; anything else in the queue is a stranger (any process
// on the host can connect to a loopback port) and is shown the door.
func (n *Network) connect(a, b bgp.NodeID) (sa, sb *session, err error) {
	ca, err := net.Dial("tcp", n.ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	cb, err := n.ln.Accept()
	for err == nil && cb.RemoteAddr().String() != ca.LocalAddr().String() {
		cb.Close()
		cb, err = n.ln.Accept()
	}
	if err != nil {
		ca.Close()
		return nil, nil, err
	}
	sa = newSession(b, ca, n.newSessionCodec(a, b))
	sb = newSession(a, cb, n.newSessionCodec(b, a))
	shake := func(sess *session, dialer bool) error {
		got, err := sess.codec.Handshake(sess.conn, dialer)
		if err == nil && got != sess.peer {
			err = fmt.Errorf("speaker: peer identifies as node %d, expected %d", got, sess.peer)
		}
		if err != nil {
			sess.conn.Close()
		}
		return err
	}
	errB := make(chan error, 1)
	go func() { errB <- shake(sb, false) }()
	err = shake(sa, true)
	if e := <-errB; err == nil {
		err = e
	}
	if err != nil {
		ca.Close()
		cb.Close()
		return nil, nil, err
	}
	return sa, sb, nil
}

// Start opens the bring-up listener, connects every session (the
// lower-numbered end dials), launches the speaker loops and arms one timer
// per fault-plan session reset. Resets naming sessions absent from the
// topology are skipped (RandomPlan can derive them; they would be no-ops).
func (n *Network) Start() error {
	sys := n.dom.Base()
	var err error
	if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		n.Stop()
		return fmt.Errorf("speaker: %w", err)
	}
	for _, sp := range n.speakers {
		for _, v := range sys.Peers(sp.id) {
			if sp.id >= v {
				continue
			}
			su, sv, err := n.connect(sp.id, v)
			if err != nil {
				n.Stop()
				return fmt.Errorf("speaker: session %s-%s: %w", sys.Name(sp.id), sys.Name(v), err)
			}
			sp.sessions[v], n.speakers[v].sessions[sp.id] = su, sv
		}
	}
	n.started = time.Now()
	for _, sp := range n.speakers {
		sp.start()
	}
	if plan := n.dom.Faults(); plan != nil {
		for _, r := range plan.Resets {
			if sys.HasSession(r.A, r.B) {
				n.after(time.Duration(r.At)*time.Millisecond, func() { n.resetSession(r) })
			}
		}
	}
	return nil
}

// start launches the speaker's per-session loops, the main loop and — when
// the codec negotiated a hold time — the keepalive ticker. One hold policy
// covers the network, so every session of a speaker negotiates the same.
func (s *Speaker) start() {
	var hold time.Duration
	for _, sess := range s.sessions {
		s.startSession(sess)
		hold = sess.codec.HoldTime()
	}
	s.wg.Add(1)
	go s.mainLoop()
	if hold > 0 && !s.net.noKeepalives {
		s.wg.Add(1)
		go s.keepaliveLoop(hold / 3)
	}
}

// startSession launches one session incarnation's read and write loops.
func (s *Speaker) startSession(sess *session) {
	s.wg.Add(2)
	go s.readLoop(sess)
	go s.writeLoop(sess)
}

// keepaliveLoop is the speaker's one liveness ticker: every interval (a
// third of the negotiated hold time, RFC 4271 §4.4) it enqueues a keepalive
// on each live session as a control message, invisible to the UPDATE
// quiescence ledger.
func (s *Speaker) keepaliveLoop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.mu.Lock()
			for _, sess := range s.sessions {
				bp := outBufPool.Get().(*[]byte)
				*bp = sess.codec.AppendKeepalive((*bp)[:0])
				sess.enqueue(outMsg{buf: bp, at: time.Now(), ctrl: true})
			}
			s.mu.Unlock()
		}
	}
}

// postPeerDown reports this incarnation's death to the router core exactly
// once, whatever kills it first (peer NOTIFICATION, hold expiry, corrupt
// frame, transport loss). Planned teardowns — fault resets and Stop — post
// their own controls and never come through here.
func (s *Speaker) postPeerDown(sess *session) {
	if !sess.downPosted.CompareAndSwap(false, true) {
		return
	}
	s.post(inbound{kind: inPeerDown, peer: sess.peer})
}

// sendNotification enqueues a NOTIFICATION as the session's final message:
// the write loop closes the connection right after it (RFC 4271 §6).
func (s *Speaker) sendNotification(sess *session, note wire.Notification) {
	bp := outBufPool.Get().(*[]byte)
	*bp = sess.codec.AppendNotification((*bp)[:0], note)
	if !sess.enqueue(outMsg{buf: bp, at: time.Now(), ctrl: true, closeAfter: true}) {
		sess.conn.Close() // queue full: close without the courtesy message
	}
}

// teardownCaused reports whether a read error is this side's own doing —
// Stop or a fault reset closed the connection under the reader — rather
// than anything the peer sent. Those paths account the death themselves.
func (s *Speaker) teardownCaused(sess *session) bool {
	select {
	case <-sess.stop:
	case <-s.done:
	default:
		return false
	}
	return true
}

func (s *Speaker) readLoop(sess *session) {
	defer s.wg.Done()
	defer close(sess.readDone)
	for {
		msg, err := sess.codec.ReadMessage()
		if err != nil {
			if s.teardownCaused(sess) {
				return // own Stop or fault reset: accounted elsewhere
			}
			var nerr net.Error
			switch {
			case errors.As(err, &nerr) && nerr.Timeout():
				// Hold timer expired: NOTIFICATION, teardown, peer down
				// (RFC 4271 §6.5).
				s.net.counters.HoldExpiries.Add(1)
				s.net.dispatch(router.Event{Kind: router.HoldExpired, Time: s.net.now(),
					Node: s.id, Peer: sess.peer, Code: 4})
				s.sendNotification(sess, wire.Notification{Code: 4})
				s.postPeerDown(sess)
			case errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE):
				// Clean close or transport loss: peer down, nothing to say.
				s.postPeerDown(sess)
			default:
				// Corrupt frame: count it, surface it, and (when the codec
				// maps the error to a NOTIFICATION) tell the peer before
				// tearing down.
				s.net.counters.BadFrames.Add(1)
				note, hasNote := sess.codec.NotificationFor(err)
				s.net.dispatch(router.Event{Kind: router.BadFrame, Time: s.net.now(),
					Node: s.id, Peer: sess.peer, Code: note.Code, Subcode: note.Subcode})
				if hasNote {
					s.sendNotification(sess, note)
				} else {
					sess.conn.Close()
				}
				s.postPeerDown(sess)
			}
			return
		}
		switch m := msg.(type) {
		case wire.Update:
			sess.got.Add(1)
			s.post(inbound{kind: inUpdate, peer: sess.peer, upd: &m})
		case wire.Keepalive, wire.Open:
			// Liveness / duplicate OPEN: ignored.
		case wire.Notification:
			// The peer closed the session with a stated reason: surface it
			// as a typed event and flush like any other session death.
			s.net.counters.Notifs.Add(1)
			s.net.dispatch(router.Event{Kind: router.NotificationReceived, Time: s.net.now(),
				Node: s.id, Peer: sess.peer, Code: m.Code, Subcode: m.Subcode})
			s.postPeerDown(sess)
			return
		}
	}
}

// writeLoop owns the session's outbound wire. Messages go out in queue
// order, each no earlier than its fault-delay release time. Once a write
// fails — or the incarnation is stopped — every remaining message is
// counted into Dropped so the quiescence ledger (Sent == Received +
// Rejected + Dropped) stays balanced without it.
func (s *Speaker) writeLoop(sess *session) {
	defer s.wg.Done()
	defer close(sess.writeDone)
	dead := false
	for {
		var m outMsg
		select {
		case <-s.done:
			return
		case <-sess.stop:
			s.drainOutQ(sess)
			return
		case m = <-sess.outQ:
		}
		if wait := time.Until(m.at); wait > 0 && !dead {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-s.done:
				t.Stop()
				return
			case <-sess.stop:
				t.Stop()
				s.discard(m)
				s.drainOutQ(sess)
				return
			}
		}
		if !dead {
			_, err := sess.conn.Write(*m.buf)
			dead = err != nil
		}
		if dead {
			s.discard(m)
			continue
		}
		if !m.ctrl {
			sess.written.Add(1)
		}
		recycleOut(m.buf)
		if m.closeAfter {
			// NOTIFICATION written: the session ends here (RFC 4271 §6).
			// Later queue entries are accounted by the dead branch above.
			dead = true
			sess.conn.Close()
		}
	}
}

// discard accounts one message that will never reach the wire: an UPDATE
// is counted Dropped (control messages are invisible to the ledger) and the
// buffer goes back to the pool.
func (s *Speaker) discard(m outMsg) {
	if !m.ctrl {
		s.net.counters.Dropped.Add(1)
	}
	recycleOut(m.buf)
}

// drainOutQ discards everything still queued on a torn-down session.
func (s *Speaker) drainOutQ(sess *session) {
	for {
		select {
		case m := <-sess.outQ:
			s.discard(m)
		default:
			return
		}
	}
}

func (s *Speaker) mainLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case in := <-s.inbox:
			// Drain whatever else already arrived before announcing, the
			// operational analogue of emptying the input queue before
			// running the decision process.
			for more := true; more; {
				s.handle(in)
				select {
				case in = <-s.inbox:
				default:
					more = false
				}
			}
			s.refresh()
			// Deliver the round's buffered events in one batch, off the
			// core lock; a round with no emissions flushes for free.
			s.emux.Flush()
		}
	}
}

// handle applies one unit of inbound work to the router core.
func (s *Speaker) handle(in inbound) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.net.now()
	switch in.kind {
	case inUpdate:
		// A validation failure is counted by the core (Rejected); the
		// update is discarded whole, like a malformed UPDATE in BGP.
		_ = s.core.ApplyUpdate(now, in.peer, in.upd)
	case inInject:
		s.core.Inject(now, in.prefix, in.path)
	case inWithdraw:
		s.core.WithdrawExternal(now, in.prefix, in.path)
	case inFlush:
		s.core.Reopen(in.peer)
	case inPeerDown:
		s.core.PeerDown(now, in.peer)
	case inPeerUp:
		s.core.PeerUp(now, in.peer)
	}
}

// refresh runs the core refresh — recompute routes, send owed UPDATEs —
// and arms a wall-clock timer for every MRAI deferral the core reports.
// The timers are armed (and so counted in the gauge) while the core lock is
// still held: a Quiesced probe racing the lock release must already see the
// owed flush, or it could report a settled network with an UPDATE still
// pending.
func (s *Speaker) refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.net.now()
	for _, d := range s.core.Refresh(now, s.send) {
		s.flushAfter(d.To, time.Duration(d.ReadyAt-now)*time.Millisecond)
	}
}

// flushAfter re-runs the refresh for one peer through the main loop after
// d: the MRAI window reopening, or the RTO after a failed or fault-dropped
// send, when the core re-sends whatever it still owes the peer.
func (s *Speaker) flushAfter(peer bgp.NodeID, d time.Duration) {
	s.net.after(d, func() { s.post(inbound{kind: inFlush, peer: peer}) })
}

// What a lost send returns: the core only tests for non-nil (it rewinds and
// counts the drop), so nothing is formatted per message.
var (
	errNoSession = errors.New("speaker: no session to peer")
	errQueueFull = errors.New("speaker: outbound queue full")
)

// send implements router.SendFunc over the TCP sessions. Always called with
// s.mu held (from refresh via core.Refresh), which also guards s.sessions
// and sess.seq. The core books the message's fault fate; the session layer
// keeps its timing: wire release times, and an RTO retry for a message that
// is dropped or cannot be queued. Arrival time is unknown on a real
// network, so it reports -1.
func (s *Speaker) send(w bgp.NodeID, upd *wire.Update) (int64, error) {
	sess := s.sessions[w]
	if sess == nil {
		// Session currently torn down (reset downtime): the core rewinds
		// and counts the drop; the PeerUp refresh re-sends what is owed.
		return -1, errNoSession
	}
	seq := sess.seq
	sess.seq++
	fate, err := s.core.BookFate(s.net.now(), w, seq)
	if err == nil {
		at := time.Now().Add(time.Duration(fate.ExtraDelay) * time.Millisecond)
		err = sess.enqueueUpdate(upd, at)
		if fate.Duplicate {
			dupAt := at.Add(time.Duration(fate.DupDelay) * time.Millisecond)
			if err != nil || sess.enqueueUpdate(upd, dupAt) != nil {
				// The core counted the copy Sent; it never reaches the wire.
				s.net.counters.Dropped.Add(1)
			}
		}
	}
	if err != nil {
		// The core rewinds its Adj-RIB-Out memory and counts the loss; the
		// RTO retry re-runs refresh so the owed diff is re-sent under a
		// fresh fate.
		s.flushAfter(w, router.DropRTO*time.Millisecond)
		return -1, err
	}
	return -1, nil
}

// enqueueUpdate encodes one UPDATE into a pooled buffer and queues it to
// hit the wire no earlier than at. upd points at the core's reusable
// refresh scratch, which the next flush overwrites, so the bytes are taken
// here, before the message crosses onto the session goroutine; a duplicate
// is encoded again into a buffer of its own.
func (sess *session) enqueueUpdate(upd *wire.Update, at time.Time) error {
	bp := outBufPool.Get().(*[]byte)
	b, err := sess.codec.AppendUpdate((*bp)[:0], upd)
	if err != nil {
		recycleOut(bp)
		return fmt.Errorf("speaker: encode for %d: %w", sess.peer, err)
	}
	*bp = b
	if !sess.enqueue(outMsg{buf: bp, at: at}) {
		return errQueueFull
	}
	return nil
}

// post delivers one unit of work to the speaker's main loop, giving up if
// the network is shutting down.
func (s *Speaker) post(in inbound) {
	select {
	case s.inbox <- in:
	case <-s.done:
	}
}

// takeSession removes and returns the live session to peer, or nil if none
// (already torn down). The caller owns the incarnation exclusively after.
func (s *Speaker) takeSession(peer bgp.NodeID) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[peer]
	delete(s.sessions, peer)
	return sess
}

// installSession inserts a fresh incarnation and starts its loops. Only
// called while holding Network.stopMu with stopped false, so the wg.Add
// cannot race Stop's Wait.
func (s *Speaker) installSession(sess *session) {
	s.mu.Lock()
	s.sessions[sess.peer] = sess
	s.mu.Unlock()
	s.startSession(sess)
}

// resetSession executes one fault-plan session reset: tear both directions
// of the TCP session down, reconcile in-flight losses into Dropped, tell
// both router cores the peer died (RFC 4271 §8.2 flush), and arm the
// reopen — before this timer's own slot in the gauge is released (see
// after), so Quiesced cannot report a settled network mid-downtime.
func (n *Network) resetSession(r faults.Reset) {
	n.stopMu.Lock()
	if n.stopped {
		n.stopMu.Unlock()
		return
	}
	sa := n.speakers[r.A].takeSession(r.B)
	sb := n.speakers[r.B].takeSession(r.A)
	n.stopMu.Unlock()
	if sa == nil || sb == nil {
		return // session already down (overlapping resets in the plan): no-op
	}
	n.counters.Resets.Add(1)
	close(sa.stop)
	close(sb.stop)
	sa.conn.Close()
	sb.conn.Close()
	<-sa.readDone
	<-sa.writeDone
	<-sb.readDone
	<-sb.writeDone
	// Everything written but never read died in the kernel buffers with the
	// connection; count it so the quiescence ledger stays closed.
	lost := (sa.written.Load() - sb.got.Load()) + (sb.written.Load() - sa.got.Load())
	if lost > 0 {
		n.counters.Dropped.Add(lost)
	}
	// Both read loops have drained onto the inboxes, so these controls sort
	// after every UPDATE of the dead incarnation: the flush cannot be
	// overwritten by a stale message.
	n.speakers[r.A].post(inbound{kind: inPeerDown, peer: r.B})
	n.speakers[r.B].post(inbound{kind: inPeerDown, peer: r.A})
	n.after(time.Duration(r.Downtime)*time.Millisecond, func() { n.reopenSession(r) })
}

// reopenSession reconnects a reset session and tells both cores the peer
// is back, which triggers the RFC 4271 full re-advertisement out of the
// cores' wiped Adj-RIB-Out memory. A failed reconnect leaves the session
// down — dead sessions still quiesce — but never silently.
func (n *Network) reopenSession(r faults.Reset) {
	n.stopMu.Lock()
	defer n.stopMu.Unlock()
	if n.stopped {
		return
	}
	sa, sb, err := n.connect(r.A, r.B)
	if err != nil {
		n.counters.ReopenFailures.Add(1)
		n.dispatch(router.Event{Kind: router.ReopenFailed, Time: n.now(), Node: r.A, Peer: r.B})
		return
	}
	n.speakers[r.A].installSession(sa)
	n.speakers[r.B].installSession(sb)
	n.speakers[r.A].post(inbound{kind: inPeerUp, peer: r.B})
	n.speakers[r.B].post(inbound{kind: inPeerUp, peer: r.A})
}

// InjectPrefix delivers an E-BGP route for one prefix.
func (n *Network) InjectPrefix(prefix uint32, id bgp.PathID) { n.postExternal(inInject, prefix, id) }

// WithdrawPrefix removes an E-BGP route for one prefix.
func (n *Network) WithdrawPrefix(prefix uint32, id bgp.PathID) {
	n.postExternal(inWithdraw, prefix, id)
}

// postExternal posts one E-BGP event to the speaker at the path's exit
// point; a prefix the network does not carry is ignored.
func (n *Network) postExternal(kind inKind, prefix uint32, id bgp.PathID) {
	if sys := n.dom.System(prefix); sys != nil {
		n.speakers[sys.Exit(id).ExitPoint].post(inbound{kind: kind, prefix: prefix, path: id})
	}
}

// InjectAll delivers every exit path of every prefix.
func (n *Network) InjectAll() {
	for _, prefix := range n.dom.Prefixes() {
		for _, p := range n.dom.System(prefix).Exits() {
			n.InjectPrefix(prefix, p.ID)
		}
	}
}

// Quiesced reports whether no UPDATE is currently unprocessed: everything
// handed to the transport has been applied, rejected or accounted lost, no
// timer is outstanding, and no speaker holds queued work. The ledger form
// matters: comparing Sent against Received alone turns any dead-session
// loss into a permanent false negative, because a dropped UPDATE is never
// received — it is counted in Dropped.
func (n *Network) Quiesced() bool {
	if n.counters.Sent.Load() !=
		n.counters.Received.Load()+n.counters.Rejected.Load()+n.counters.Dropped.Load() {
		return false
	}
	if n.timers.Load() != 0 {
		return false
	}
	for _, sp := range n.speakers {
		if len(sp.inbox) > 0 {
			return false
		}
	}
	return true
}

// WaitQuiesce polls until the network has been quiescent for settle, or
// until timeout elapses. It returns true on quiescence. Classic I-BGP on
// an oscillating configuration never quiesces; callers rely on the
// timeout.
func (n *Network) WaitQuiesce(timeout, settle time.Duration) bool {
	deadline := time.Now().Add(timeout)
	quietSince := time.Time{}
	lastSent := n.counters.Sent.Load()
	for time.Now().Before(deadline) {
		if n.Quiesced() && n.counters.Sent.Load() == lastSent {
			if quietSince.IsZero() {
				quietSince = time.Now()
			} else if time.Since(quietSince) >= settle {
				return true
			}
		} else {
			quietSince = time.Time{}
			lastSent = n.counters.Sent.Load()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// BestFor returns the current best path of router u for one prefix.
func (n *Network) BestFor(prefix uint32, u bgp.NodeID) bgp.PathID {
	return n.speakers[u].BestFor(prefix)
}

// BestAllFor returns every router's current best path for one prefix.
func (n *Network) BestAllFor(prefix uint32) []bgp.PathID {
	out := make([]bgp.PathID, len(n.speakers))
	for i, sp := range n.speakers {
		out[i] = sp.BestFor(prefix)
	}
	return out
}

// Stop tears the network down: closes sessions and stops all goroutines.
// Marking stopped under stopMu first fences out session reopens, so no new
// incarnation can be installed once teardown begins; outstanding timers
// fire into the closed network and release their gauge slots.
func (n *Network) Stop() {
	n.stopOnce.Do(func() {
		n.stopMu.Lock()
		n.stopped = true
		if n.ln != nil {
			n.ln.Close()
		}
		n.stopMu.Unlock()
		for _, sp := range n.speakers {
			close(sp.done)
		}
		for _, sp := range n.speakers {
			sp.mu.Lock()
			for _, sess := range sp.sessions {
				sess.conn.Close()
			}
			sp.mu.Unlock()
		}
		for _, sp := range n.speakers {
			sp.wg.Wait()
		}
	})
}
