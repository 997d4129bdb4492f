// Package msgsim is a message-level discrete-event simulator of I-BGP with
// route reflection. Unlike package protocol — which implements the paper's
// abstract activation model — msgsim models the operational protocol. The
// per-router behaviour (Adj-RIB-In state, reflection rules, refresh,
// per-peer diff/coalesce, MRAI pacing) lives in the shared core of package
// router; this package is only the transport: an event calendar with
// pluggable per-message delays, per-session FIFO order, and a virtual
// clock. Every UPDATE is carried as genuine wire bytes — framed with wire.AppendUpdate
// into a pooled buffer at the sender and consumed through a zero-copy
// wire.UpdateView at the receiver — so each simulated hop also exercises
// the codec the TCP speakers use, without per-hop allocations: events and
// their payload buffers recycle through freelists on delivery.
//
// Message delays are pluggable and may be scripted, which reproduces the
// Figure 3 / Table 1 executions where timing alone decides whether the
// system oscillates and which stable solution it reaches.
package msgsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/wire"
)

// DelayFunc returns the transit delay of the seq-th message sent on the
// session from -> to. Delays must be non-negative; FIFO order per session
// is enforced regardless of the returned values.
type DelayFunc func(from, to bgp.NodeID, seq int) int64

// ConstantDelay returns a DelayFunc with a fixed delay for every message.
func ConstantDelay(d int64) DelayFunc {
	return func(bgp.NodeID, bgp.NodeID, int) int64 { return d }
}

// RandomDelay returns a seeded DelayFunc with delays uniform in [min, max].
// The range is validated at construction: a reversed or negative range
// returns a clear error here instead of surfacing as a scheduler panic (or
// a silently degenerate delay model) thousands of events into a run.
func RandomDelay(seed, min, max int64) (DelayFunc, error) {
	if min < 0 {
		return nil, fmt.Errorf("msgsim: RandomDelay min %d is negative", min)
	}
	if max < min {
		return nil, fmt.Errorf("msgsim: RandomDelay range [%d, %d] is reversed", min, max)
	}
	rng := rand.New(rand.NewSource(seed))
	span := max - min + 1
	return func(bgp.NodeID, bgp.NodeID, int) int64 {
		return min + rng.Int63n(span)
	}, nil
}

// MustRandomDelay is RandomDelay for ranges known valid at the call site;
// it panics on a bad range (the regexp.MustCompile convention).
func MustRandomDelay(seed, min, max int64) DelayFunc {
	d, err := RandomDelay(seed, min, max)
	if err != nil {
		panic(err)
	}
	return d
}

// event is a queued simulator event.
type event struct {
	time int64
	seq  int // global tie-break for determinism
	kind eventKind
	// message fields: one wire-encoded UPDATE in flight on from -> to.
	from, to bgp.NodeID
	sess     *session // the directed session from -> to
	payload  []byte
	// epoch is the session incarnation the message was sent under; a reset
	// bumps the session epoch, so stale in-flight messages are recognised
	// and lost at delivery time (TCP loses them with the connection).
	epoch int
	// sseq is the per-session send sequence number. A message overtaken by
	// a reordered later message is recognised as stale at delivery and
	// discarded, so a session's last applied message always carries the
	// sender's newest state (the property Lemma 7.4 re-convergence needs).
	sseq int
	// external fields
	prefix uint32
	path   bgp.PathID
}

type eventKind int

const (
	evMessage eventKind = iota
	evInject
	evWithdraw
	// evFlush fires when a session's MRAI window reopens: the sender
	// re-evaluates what it owes that peer and sends the coalesced diff.
	evFlush
	// evPeerDown / evPeerUp fire at one endpoint (from) of a scheduled
	// session reset: the session to peer `to` dies or re-establishes. Each
	// reset schedules one pair per direction so both routers flush and
	// later re-advertise.
	evPeerDown
	evPeerUp
)

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// calendar is the simulator's event queue: a ring of per-tick FIFO buckets
// for the ticks [cur, cur+ringTicks) — message delays are a handful of
// ticks, so nearly every push lands there — with the binary heap kept only
// as overflow for events pushed before cur or beyond the window. It pops
// in exactly eventHeap.Less order, (time, seq) ascending: seq grows with
// every push, so a bucket's FIFO order is its seq order; cur only moves
// forward past empty buckets (or anywhere while the ring is empty), so a
// bucket never mixes ticks; and every pop takes the smaller of the ring's
// head and the heap's top, so an overflow event that has come due — or
// was pushed into the past — is never overtaken.
type calendar struct {
	cur    int64 // tick of the bucket being consumed
	head   int   // next event of that bucket; every other bucket is unread
	ring   [ringTicks][]*event
	inRing int
	far    eventHeap
}

const ringTicks = 64 // a power of two

func (c *calendar) len() int { return c.inRing + len(c.far) }

func (c *calendar) push(e *event) {
	if c.inRing == 0 {
		c.cur = e.time // an empty ring can sit anywhere
	}
	if d := e.time - c.cur; d < 0 || d >= ringTicks {
		heap.Push(&c.far, e)
		return
	}
	c.ring[e.time&(ringTicks-1)] = append(c.ring[e.time&(ringTicks-1)], e)
	c.inRing++
}

// peek returns the next event without removing it, or nil when empty.
func (c *calendar) peek() *event {
	var e *event
	if c.inRing > 0 {
		for len(c.ring[c.cur&(ringTicks-1)]) == 0 {
			c.cur++
		}
		e = c.ring[c.cur&(ringTicks-1)][c.head]
	}
	if len(c.far) > 0 {
		if f := c.far[0]; e == nil || f.time < e.time || (f.time == e.time && f.seq < e.seq) {
			return f
		}
	}
	return e
}

// pop removes and returns the next event, or nil when empty.
func (c *calendar) pop() *event {
	e := c.peek()
	if e == nil {
		return nil
	}
	if len(c.far) > 0 && c.far[0] == e {
		return heap.Pop(&c.far).(*event)
	}
	b := &c.ring[c.cur&(ringTicks-1)]
	if c.head++; c.head == len(*b) {
		*b, c.head = (*b)[:0], 0
	}
	c.inRing--
	return e
}

// session is the transport state of one directed session. epoch and down
// belong to the undirected session: a reset writes both directions.
type session struct {
	sent    int   // messages sent so far (the next sseq)
	lastArr int64 // last delivery time (FIFO clamp)
	epoch   int   // incarnation
	down    bool

	// Reorder bookkeeping, untouched until the run's first reorder-exempt
	// send (Sim.reorderSeen): the highest delivered sseq and, per (prefix,
	// path), the highest sseq of a delivered update that announced or
	// withdrew that route. The latter sequences reordered deliveries at
	// route granularity: an update overtaken in flight is a *diff*, not a
	// superset of its successors, so its entries must still apply except
	// where a newer delivered update already spoke for the same route.
	delivSeq int
	touched  map[[2]uint32]int
}

// Sim is one simulation run. It is not safe for concurrent use. Like the
// TCP speakers, a Sim can carry several destination prefixes over one
// session graph; the single-prefix constructors use prefix 0.
type Sim struct {
	dom      *router.Domain
	routers  []*router.Router
	counters router.Counters
	delay    DelayFunc
	plan     *faults.Plan

	queue calendar
	seq   int

	// Freelists: delivered events and their payload buffers are recycled
	// instead of garbage. Ownership is exclusive — every queued event owns
	// its payload (a fault-duplicate gets a copied buffer), and recycle in
	// Run is the single point that returns both. sends caches one SendFunc
	// closure per router so refresh doesn't rebuild it every activation.
	free  []*event
	bufs  [][]byte
	sends []router.SendFunc

	// sess holds the directed sessions densely, router u's block starting
	// at sessOff[u] in u's peer order (see session).
	sess    []session
	sessOff []int

	// reorderSeen is set at the first reorder-exempt send of the run; until
	// then per-direction delivery is provably FIFO (the clamp in sendFrom)
	// and the sessions' sequence bookkeeping is skipped entirely.
	reorderSeen bool

	now     int64
	events  int
	mux     router.Mux
	evWired bool // routers' event streams attached to mux
}

// New creates a simulator over sys with the given advertisement policy,
// selection options and delay model. Exit paths enter the system only via
// InjectAll or InjectAt.
func New(sys *topology.System, policy protocol.Policy, opts selection.Options, delay DelayFunc) *Sim {
	return NewMulti(map[uint32]*topology.System{0: sys}, policy, opts, delay)
}

// NewMulti creates a simulator carrying one prefix per entry of systems;
// all systems must share the identical topology and differ only in their
// exit paths (as with speaker.NewMulti). The first (lowest) prefix's
// system provides the session graph.
func NewMulti(systems map[uint32]*topology.System, policy protocol.Policy, opts selection.Options, delay DelayFunc) *Sim {
	dom, err := router.NewDomain(systems, policy, opts)
	if err != nil {
		panic("msgsim: " + err.Error())
	}
	s := &Sim{dom: dom, delay: delay}
	sessions := 0
	for u := 0; u < dom.Base().N(); u++ {
		s.sessOff = append(s.sessOff, sessions)
		sessions += len(dom.Base().Peers(bgp.NodeID(u)))
	}
	s.sess = make([]session, sessions)
	// All core and transport events flow through one multiplexer; sinks
	// (line traces, telemetry feeds, soak harnesses) attach with
	// ObserveEvents before Run. The routers' streams hook in
	// lazily on the first registration — see wireEvents — so a sim nobody
	// watches never pays for event emission at all.
	for u := 0; u < dom.Base().N(); u++ {
		rt := dom.NewRouter(bgp.NodeID(u), &s.counters)
		s.routers = append(s.routers, rt)
		s.sends = append(s.sends, s.sendFrom(bgp.NodeID(u)))
	}
	return s
}

// wireEvents attaches the routers' event streams to the simulator's
// multiplexer. It runs on the first observer registration, before the run
// starts (Router.Events enforces this): an unobserved sim keeps every
// router's sink nil, so the cores skip event construction and the
// UpdateReceived record copy entirely on the hot path.
func (s *Sim) wireEvents() {
	if s.evWired {
		return
	}
	s.evWired = true
	for _, rt := range s.routers {
		// Emissions buffer on the mux and flush once per activation round
		// (see Run); Batch deep-copies each event's Update out of the
		// core's reusable scratch, so buffering is safe.
		rt.Events(s.mux.Batch)
	}
}

// ObserveEvents registers a typed-event sink on the simulator's event
// multiplexer (a line trace is trace.NewRouterEventRenderer applied in the
// sink). Like Router.Events, registration must happen before the first
// Run; the sink runs synchronously on the simulator's goroutine, receiving
// each activation round's events in emission order when the round's batch
// flushes.
func (s *Sim) ObserveEvents(fn func(router.Event)) {
	s.wireEvents()
	s.mux.Add(fn)
}

// ObserveEventsBatch registers a batch-aware sink: it receives each
// activation round's events as one slice (valid only until it returns),
// amortising per-event overhead. Same before-Run contract as
// ObserveEvents.
func (s *Sim) ObserveEventsBatch(fn func([]router.Event)) {
	s.wireEvents()
	s.mux.AddBatch(fn)
}

// SetMRAI sets the per-session minimum route advertisement interval, the
// BGP mechanism that coalesces rapid update bursts (0 disables it, the
// default). MRAI damps transient oscillations — it merges an announcement
// with its own correction — but cannot create stability where no stable
// solution exists.
func (s *Sim) SetMRAI(d int64) {
	for _, rt := range s.routers {
		rt.SetMRAI(d)
	}
}

// SetWorkers sets the per-router refresh fan-out (router.SetWorkers):
// each refresh's per-prefix recompute/diff phase runs on up to n
// goroutines. The event queue, delivery order and emitted UPDATE stream
// are byte-identical for every value — the simulator stays deterministic.
// Call before Run.
func (s *Sim) SetWorkers(n int) {
	for _, rt := range s.routers {
		rt.SetWorkers(n)
	}
}

// dropRTO is the virtual-tick retransmission backoff after a fault-dropped
// message: the sender re-runs refresh and re-sends what it still owes.
const dropRTO = 17

// errFaultDrop is what a fault-dropped send returns; the core only needs
// to know the message was lost.
var errFaultDrop = errors.New("msgsim: fault plan dropped the message")

// session returns the directed session u -> w; w must be a peer of u.
func (s *Sim) session(u, w bgp.NodeID) *session {
	i, _ := slices.BinarySearch(s.dom.Base().Peers(u), w)
	return &s.sess[s.sessOff[u]+i]
}

// SetFaults installs a fault plan: per-message fates are applied at every
// simulated hop and the plan's session resets are scheduled as PeerDown /
// PeerUp event pairs. Call it before Run, after the plan is final; resets
// naming sessions absent from the topology are ignored (they can occur in
// RandomPlan-derived schedules and would be no-ops anyway).
func (s *Sim) SetFaults(p *faults.Plan) error {
	if p == nil {
		s.plan = nil
		return nil
	}
	if err := p.Validate(s.dom.Base().N()); err != nil {
		return err
	}
	s.plan = p
	sys := s.dom.Base()
	for _, r := range p.Resets {
		if !sys.HasSession(r.A, r.B) {
			continue
		}
		// One event per endpoint and transition, so each router runs its
		// own flush-and-refresh in the normal event loop.
		s.pushEv(event{time: r.At, kind: evPeerDown, from: r.A, to: r.B})
		s.pushEv(event{time: r.At, kind: evPeerDown, from: r.B, to: r.A})
		s.pushEv(event{time: r.At + r.Downtime, kind: evPeerUp, from: r.A, to: r.B})
		s.pushEv(event{time: r.At + r.Downtime, kind: evPeerUp, from: r.B, to: r.A})
	}
	return nil
}

// InjectAt schedules the E-BGP injection of a prefix-0 path.
func (s *Sim) InjectAt(time int64, id bgp.PathID) { s.InjectPrefixAt(time, 0, id) }

// InjectPrefixAt schedules the E-BGP injection of one prefix's path.
func (s *Sim) InjectPrefixAt(time int64, prefix uint32, id bgp.PathID) {
	s.pushEv(event{time: time, kind: evInject, prefix: prefix, path: id})
}

// WithdrawAt schedules the E-BGP withdrawal of a prefix-0 path.
func (s *Sim) WithdrawAt(time int64, id bgp.PathID) { s.WithdrawPrefixAt(time, 0, id) }

// WithdrawPrefixAt schedules the E-BGP withdrawal of one prefix's path.
func (s *Sim) WithdrawPrefixAt(time int64, prefix uint32, id bgp.PathID) {
	s.pushEv(event{time: time, kind: evWithdraw, prefix: prefix, path: id})
}

// InjectAll schedules every exit path of every prefix at time 0.
func (s *Sim) InjectAll() {
	for _, prefix := range s.dom.Prefixes() {
		for _, p := range s.dom.System(prefix).Exits() {
			s.InjectPrefixAt(0, prefix, p.ID)
		}
	}
}

func (s *Sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	s.queue.push(e)
}

// pushEv enqueues one event, drawing its carrier from the freelist. The
// event value's payload, if any, transfers ownership to the queue.
func (s *Sim) pushEv(e event) {
	ev := s.alloc()
	*ev = e
	s.push(ev)
}

// alloc pops a recycled event carrier, or makes a fresh one.
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	return &event{}
}

// recycle returns one delivered event and its payload buffer to the
// freelists. Only Run calls it, after apply has fully consumed the event:
// receivers decode through a view of the payload and never retain it.
func (s *Sim) recycle(e *event) {
	if e.payload != nil {
		s.putBuf(e.payload)
	}
	*e = event{}
	s.free = append(s.free, e)
}

// getBuf pops a recycled payload buffer (length 0), or makes a fresh one.
func (s *Sim) getBuf() []byte {
	if n := len(s.bufs); n > 0 {
		b := s.bufs[n-1]
		s.bufs = s.bufs[:n-1]
		return b[:0]
	}
	return make([]byte, 0, 256)
}

// putBuf returns a payload buffer to the freelist.
func (s *Sim) putBuf(b []byte) {
	if cap(b) > 0 {
		s.bufs = append(s.bufs, b)
	}
}

// sendFrom builds the transport callback for router u: encode the UPDATE
// to wire bytes, decide its fault fate, pick the delay, clamp to FIFO
// order (unless a Reorder fate exempts it) and enqueue delivery.
func (s *Sim) sendFrom(u bgp.NodeID) router.SendFunc {
	return func(w bgp.NodeID, upd *wire.Update) (int64, error) {
		// The fate is drawn before anything is framed: a dropped message
		// costs no buffer and no encode.
		sess := s.session(u, w)
		n := sess.sent
		sess.sent++
		fate := s.plan.Fate(s.now, u, w, n)
		if fate.Drop {
			// The erroring send tells the core "handed to the transport but
			// lost": it counts the drop and rewinds its Adj-RIB-Out memory
			// so the diff stays owed. The retry flush below re-runs the
			// sender's refresh one RTO later — the retransmission loop TCP
			// gives a real speaker — and the re-send draws a fresh fate, so
			// once the plan's horizon passes the message gets through.
			s.counters.FaultDrops.Add(1)
			s.mux.Batch(router.Event{Kind: router.FaultDrop, Time: s.now, Node: u, Peer: w})
			s.pushEv(event{time: s.now + dropRTO, kind: evFlush, from: u, to: w})
			return -1, errFaultDrop
		}
		// Frame into a recycled buffer: the core's scratch Update must be
		// consumed before this callback returns, and the bytes become the
		// queued event's exclusively owned payload.
		data, err := wire.AppendUpdate(s.getBuf(), upd)
		if err != nil {
			// The core only produces well-formed updates; an encode
			// failure is a codec bug and must not be silently dropped.
			panic(fmt.Sprintf("msgsim: encode %s -> %s: %v",
				s.dom.Base().Name(u), s.dom.Base().Name(w), err))
		}
		d := s.delay(u, w, n)
		if d < 0 {
			d = 0
		}
		if fate.ExtraDelay > 0 {
			d += fate.ExtraDelay
			s.counters.FaultDelays.Add(1)
			s.mux.Batch(router.Event{Kind: router.FaultDelay, Time: s.now,
				Node: u, Peer: w, ReadyAt: fate.ExtraDelay})
		}
		at := s.now + d
		if fate.Reorder {
			// Exempt from the FIFO clamp: this message may overtake earlier
			// ones still in flight. Their stale payloads are discarded at
			// delivery (see apply), as a sequence-numbered transport would.
			s.counters.FaultReorders.Add(1)
			s.reorderSeen = true
			s.mux.Batch(router.Event{Kind: router.FaultReorder, Time: s.now, Node: u, Peer: w})
		} else if at < sess.lastArr {
			at = sess.lastArr // FIFO: never overtake an earlier message
		}
		sess.lastArr = max(sess.lastArr, at)
		s.pushEv(event{time: at, kind: evMessage, from: u, to: w, sess: sess, payload: data, epoch: sess.epoch, sseq: n})
		if fate.Duplicate {
			// The copy is one more message on the wire: count it as Sent so
			// the quiescence ledger (Sent == Received+Rejected+Dropped)
			// still balances when it is applied or lost. It barriers the
			// FIFO clamp like any message, so no later, newer state can be
			// overtaken by the stale copy.
			dupAt := max(at+fate.DupDelay, sess.lastArr)
			sess.lastArr = dupAt
			s.counters.Sent.Add(1)
			s.counters.FaultDups.Add(1)
			s.mux.Batch(router.Event{Kind: router.FaultDuplicate, Time: s.now,
				Node: u, Peer: w, ReadyAt: fate.DupDelay})
			// The copy gets its own pooled payload: each queued event owns
			// its buffer exclusively, or delivery-time recycling would hand
			// one buffer back twice.
			dup := append(s.getBuf(), data...)
			s.pushEv(event{time: dupAt, kind: evMessage, from: u, to: w, sess: sess, payload: dup, epoch: sess.epoch, sseq: n})
		}
		return at, nil
	}
}

// refresh runs the core refresh for one router and schedules any MRAI
// reopen callbacks it asks for.
func (s *Sim) refresh(u bgp.NodeID) {
	for _, d := range s.routers[u].Refresh(s.now, s.sends[u]) {
		s.pushEv(event{time: d.ReadyAt, kind: evFlush, from: u, to: d.To})
	}
}

// Result reports one simulation run.
type Result struct {
	// Quiesced is true when the event queue drained: no messages in
	// flight, a stable operational state.
	Quiesced bool
	// Events is the number of events processed.
	Events int
	// Messages is the number of UPDATE messages sent.
	Messages int
	// Flaps counts best-route changes across all routers.
	Flaps int
	// Time is the virtual clock at the end.
	Time int64
	// Best is the final best path per router.
	Best []bgp.PathID
}

// target returns the router an event mutates.
func (s *Sim) target(ev *event) bgp.NodeID {
	switch ev.kind {
	case evMessage:
		return ev.to
	case evFlush, evPeerDown, evPeerUp:
		return ev.from
	default:
		return s.dom.System(ev.prefix).Exit(ev.path).ExitPoint
	}
}

// apply mutates router state for one event without recomputing routes.
func (s *Sim) apply(ev *event) {
	switch ev.kind {
	case evInject:
		p := s.dom.System(ev.prefix).Exit(ev.path)
		s.routers[p.ExitPoint].Inject(s.now, ev.prefix, ev.path)
	case evWithdraw:
		p := s.dom.System(ev.prefix).Exit(ev.path)
		s.routers[p.ExitPoint].WithdrawExternal(s.now, ev.prefix, ev.path)
	case evMessage:
		if ev.sess.down || ev.epoch != ev.sess.epoch {
			// Lost with the connection: a session reset kills every message
			// still in flight on it (RFC 4271 §8.2 semantics).
			s.counters.Dropped.Add(1)
			return
		}
		v, _, err := wire.DecodeView(ev.payload)
		if err != nil {
			// Includes wire.ErrNotUpdate: only UPDATEs travel as payloads.
			panic(fmt.Sprintf("msgsim: decode on %s -> %s: %v",
				s.dom.Base().Name(ev.from), s.dom.Base().Name(ev.to), err))
		}
		// Sequence bookkeeping exists only to survive reorder-exempt
		// messages overtaking older ones; every other send is FIFO-clamped
		// per direction (see sendFrom), so until the fault plan produces
		// the first exempt send the maps stay untouched and unread.
		if s.reorderSeen {
			s.applySequenced(ev, v)
			return
		}
		if err := s.routers[ev.to].ApplyUpdateView(s.now, ev.from, v); err != nil {
			panic(fmt.Sprintf("msgsim: apply at %s: %v", s.dom.Base().Name(ev.to), err))
		}
	case evFlush:
		s.routers[ev.from].Reopen(ev.to)
	case evPeerDown:
		if out, back := s.session(ev.from, ev.to), s.session(ev.to, ev.from); !out.down {
			// First endpoint of the pair bumps the shared session state:
			// the epoch invalidates in-flight messages, Resets counts the
			// reset once per session rather than once per end.
			s.counters.Resets.Add(1)
			out.down, out.epoch, out.lastArr = true, out.epoch+1, 0
			back.down, back.epoch, back.lastArr = true, back.epoch+1, 0
		}
		s.routers[ev.from].PeerDown(s.now, ev.to)
	case evPeerUp:
		s.session(ev.from, ev.to).down = false
		s.session(ev.to, ev.from).down = false
		s.routers[ev.from].PeerUp(s.now, ev.to)
	}
}

// applySequenced delivers one message on a run where reordering has
// become possible (a reorder-exempt send already happened): the
// per-session sequence maps are maintained, and an overtaken update is
// sequenced at route granularity instead of applied verbatim.
func (s *Sim) applySequenced(ev *event, v wire.UpdateView) {
	if ev.sess.touched == nil {
		ev.sess.touched = map[[2]uint32]int{}
	}
	if ev.sseq < ev.sess.delivSeq {
		// Overtaken by a reordered later message. The update is a diff,
		// not a superset of its successors, so it cannot simply be
		// discarded: a route it announces that no later update touched
		// would be lost forever while the run still quiesces (breaking
		// re-convergence to the Lemma 7.4 configuration). Instead it is
		// sequenced at route granularity: only the entries a newer
		// delivered update already spoke for are dropped, so the final
		// receiver state matches the sender's Adj-RIB-Out whatever the
		// delivery order. Cold path (fault-injected reorders only), so
		// materialising the view is fine.
		upd := filterStale(ev.sess.touched, ev.sseq, v.Update())
		if err := s.routers[ev.to].ApplyUpdate(s.now, ev.from, &upd); err != nil {
			panic(fmt.Sprintf("msgsim: apply at %s: %v", s.dom.Base().Name(ev.to), err))
		}
		return
	}
	ev.sess.delivSeq = ev.sseq
	recordTouched(ev.sess.touched, ev.sseq, v)
	if err := s.routers[ev.to].ApplyUpdateView(s.now, ev.from, v); err != nil {
		panic(fmt.Sprintf("msgsim: apply at %s: %v", s.dom.Base().Name(ev.to), err))
	}
}

// recordTouched marks every route v speaks for as last touched by sseq n.
func recordTouched(m map[[2]uint32]int, n int, v wire.UpdateView) {
	for i, nw := 0, v.NumWithdrawn(); i < nw; i++ {
		wd := v.WithdrawnAt(i)
		m[[2]uint32{wd.Prefix, wd.PathID}] = n
	}
	for i, na := 0, v.NumAnnounced(); i < na; i++ {
		rec := v.AnnouncedAt(i)
		m[[2]uint32{rec.Prefix, rec.PathID}] = n
	}
}

// filterStale sequences an overtaken update at route granularity: entries
// a newer delivered update already touched are dropped (the newer word
// stands), the rest survive and claim their routes at sequence n. Fully
// superseded messages shrink to an empty update, which still counts as
// received when applied, keeping the message ledger closed.
func filterStale(m map[[2]uint32]int, n int, upd wire.Update) wire.Update {
	out := wire.Update{}
	for _, wd := range upd.Withdrawn {
		key := [2]uint32{wd.Prefix, wd.PathID}
		if m[key] > n {
			continue
		}
		m[key] = n
		out.Withdrawn = append(out.Withdrawn, wd)
	}
	for _, rec := range upd.Announced {
		key := [2]uint32{rec.Prefix, rec.PathID}
		if m[key] > n {
			continue
		}
		m[key] = n
		out.Announced = append(out.Announced, rec)
	}
	return out
}

// Run processes events until quiescence or until maxEvents events have been
// handled (a divergence guard: classic I-BGP may never quiesce).
//
// A router drains every event that has already arrived (same virtual
// instant) before recomputing routes and announcing, mirroring a real BGP
// speaker emptying its input queue before running decision and update
// processing. Events for the same router at the same instant therefore
// coalesce; events at distinct instants interleave and can produce the
// transient oscillations of Figure 3.
func (s *Sim) Run(maxEvents int) Result {
	if maxEvents <= 0 {
		maxEvents = 100000
	}
	for s.queue.len() > 0 && s.events < maxEvents {
		ev := s.queue.pop()
		s.now = ev.time
		s.events++
		who := s.target(ev)
		now := ev.time
		s.apply(ev)
		s.recycle(ev)
		// Batch: drain all same-instant events destined to this router.
		for next := s.queue.peek(); next != nil && next.time == now && s.target(next) == who; next = s.queue.peek() {
			s.queue.pop()
			s.events++
			s.apply(next)
			s.recycle(next)
		}
		s.refresh(who)
		// One activation round is complete: deliver its buffered events to
		// the observers as a single batch, in emission order.
		s.mux.Flush()
	}
	res := Result{
		Quiesced: s.queue.len() == 0,
		Events:   s.events,
		Messages: int(s.counters.Sent.Load()),
		Flaps:    int(s.counters.Flaps.Load()),
		Time:     s.now,
		Best:     make([]bgp.PathID, len(s.routers)),
	}
	first := s.dom.Prefixes()[0]
	for i := range s.routers {
		res.Best[i] = s.routers[i].Best(first)
	}
	return res
}

// Counters returns the shared operational counters at this instant.
func (s *Sim) Counters() router.Snapshot { return s.counters.Snapshot() }

// Best returns router u's current best path for the first prefix.
func (s *Sim) Best(u bgp.NodeID) bgp.PathID { return s.routers[u].Best(s.dom.Prefixes()[0]) }

// BestFor returns router u's current best path for one prefix.
func (s *Sim) BestFor(prefix uint32, u bgp.NodeID) bgp.PathID {
	return s.routers[u].Best(prefix)
}

// Possible returns router u's candidate set for the first prefix.
func (s *Sim) Possible(u bgp.NodeID) bgp.PathSet { return s.routers[u].Possible(s.dom.Prefixes()[0]) }

// PossibleFor returns router u's candidate set for one prefix.
func (s *Sim) PossibleFor(prefix uint32, u bgp.NodeID) bgp.PathSet {
	return s.routers[u].Possible(prefix)
}

// Upgraded reports whether router u switched to survivor advertisement for
// one prefix under the Adaptive policy.
func (s *Sim) Upgraded(prefix uint32, u bgp.NodeID) bool {
	return s.routers[u].Upgraded(prefix)
}

// Now returns the virtual clock.
func (s *Sim) Now() int64 { return s.now }
