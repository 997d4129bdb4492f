// Package msgsim is a message-level discrete-event simulator of I-BGP with
// route reflection. Unlike package protocol — which implements the paper's
// abstract activation model — msgsim models the operational protocol. The
// per-router behaviour (Adj-RIB-In state, reflection rules, refresh,
// per-peer diff/coalesce, MRAI pacing) lives in the shared core of package
// router; this package is only the transport: an event calendar with
// pluggable per-message delays, per-session FIFO order, and a virtual
// clock. Every UPDATE is carried as genuine wire bytes — framed with
// wire.AppendUpdate at the sender and consumed through a zero-copy
// wire.UpdateView at the receiver — so each simulated hop also exercises
// the codec the TCP speakers use, without per-hop allocations. An
// in-flight message is a pointer-free event value stored, with its bytes,
// in pooled pages of the event calendar; a page goes back to its pool as
// soon as the messages on it are delivered.
//
// Message delays are pluggable and may be scripted, which reproduces the
// Figure 3 / Table 1 executions where timing alone decides whether the
// system oscillates and which stable solution it reaches.
package msgsim

import (
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

// event is a queued simulator event. It is a pointer-free value: the
// calendar stores events inline in pooled pages, so an in-flight message
// costs the garbage collector nothing to scan and the heap no object.
type event struct {
	time int64
	seq  int64 // global tie-break for determinism
	// message fields: one wire-encoded UPDATE in flight on from -> to,
	// sess indexing Sim.sess. off and n locate its bytes in the calendar
	// storage holding the event (see calendar).
	from, to uint32
	sess     uint32
	off, n   uint32
	// epoch is the session incarnation the message was sent under; a reset
	// bumps the session epoch, so stale in-flight messages are recognised
	// and lost at delivery time (TCP loses them with the connection).
	epoch uint32
	// sseq is the per-session send sequence number. A message overtaken by
	// a reordered later message is recognised as stale at delivery and
	// discarded, so a session's last applied message always carries the
	// sender's newest state (the property Lemma 7.4 re-convergence needs).
	sseq uint32
	// external fields
	prefix, path uint32
	kind         eventKind
}

type eventKind uint8

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

// before reports whether a pops before b: (time, seq) ascending.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// calendar is the simulator's event queue: a ring of per-tick FIFO buckets
// for the ticks [cur, cur+ringTicks) — message delays are a handful of
// ticks, so nearly every push lands there — with a binary heap kept only
// as overflow for events pushed before cur or beyond the window (and for a
// payload larger than a page). It pops in exactly (time, seq) order: seq
// grows with every push, so a bucket's FIFO order is its seq order; cur
// only moves forward, to the tick of an event popped from the ring (or
// anywhere while the ring is empty), so a bucket never mixes ticks and
// the first non-empty bucket from cur holds the ring's earliest event;
// and every pop takes the smaller of that event and the heap's top, so an
// overflow event that has come due — or was pushed into the past — is
// never overtaken. cur never runs ahead of the simulated clock, so a send
// that lands within the window from now lands in the ring.
//
// Storage is pooled in fixed-size pages: a page goes back to its
// calendar-wide freelist as soon as the events or payloads on it are
// consumed, so the calendar retains only as many pages as were ever live
// at once, not each bucket's own high-water mark. A popped payload is a
// view into a page: it stays valid until the next push.
type calendar struct {
	cur    int64 // tick of the last pop from the ring, or of any pop while it is empty
	head   int   // next event of the first non-empty bucket from cur
	bhead  int   // that bucket's first byte page not yet released
	ring   [ringTicks]bucket
	inRing int

	freeEvents []*eventPage
	freeBytes  []*bytePage
	far        farHeap
}

const ringTicks = 64 // a power of two

// bucket is one tick's events in push order, as two FIFO streams over
// pages: event i is events[i/pageEvents][i%pageEvents], and a payload at
// byte offset off starts at bytes[off/pageBytes][off%pageBytes] and never
// straddles two pages. Events and bytes fill pages of their own because
// payload sizes vary too much for any fixed split of one page between
// them: about 61 bytes on a cold start, about 380 under MRAI coalescing.
type bucket struct {
	events []*eventPage
	bytes  []*bytePage
	n      int // events written
	used   int // byte offset of the next payload
}

// Pages fill one 8 KiB size class of the allocator. Neither kind holds a
// pointer, so the garbage collector never scans them.
const (
	pageBytes  = 8192
	pageEvents = pageBytes / 56 // 56: the size of an event
)

type (
	eventPage [pageEvents]event
	bytePage  [pageBytes]byte
)

func (c *calendar) len() int { return c.inRing + len(c.far) }

// push enqueues e with a copy of payload.
func (c *calendar) push(e event, payload []byte) {
	if d := e.time - c.cur; c.inRing == 0 && (d < 0 || d >= ringTicks) {
		c.cur = e.time // an empty ring can sit anywhere
	}
	if d := e.time - c.cur; d < 0 || d >= ringTicks || len(payload) > pageBytes {
		c.far.push(e, payload)
		return
	}
	b := &c.ring[e.time&(ringTicks-1)]
	if b.n%pageEvents == 0 {
		b.events = append(b.events, takePage(&c.freeEvents))
	}
	if len(payload) > 0 {
		if r := b.used % pageBytes; r != 0 && r+len(payload) > pageBytes {
			b.used += pageBytes - r // start the payload on a fresh page
		}
		if b.used/pageBytes == len(b.bytes) {
			b.bytes = append(b.bytes, takePage(&c.freeBytes))
		}
		copy(b.bytes[b.used/pageBytes][b.used%pageBytes:], payload)
	}
	e.off, e.n = uint32(b.used), uint32(len(payload))
	b.used += len(payload)
	b.events[b.n/pageEvents][b.n%pageEvents] = e
	b.n++
	c.inRing++
}

// takePage pops a page from a freelist, or makes a fresh one.
func takePage[P any](free *[]*P) *P {
	if k := len(*free); k > 0 {
		p := (*free)[k-1]
		*free = (*free)[:k-1]
		return p
	}
	return new(P)
}

// releasePages returns pages[from:to] to a freelist, skipping pages
// already released.
func releasePages[P any](free *[]*P, pages []*P, from, to int) {
	for i := from; i < to; i++ {
		if pages[i] != nil {
			*free = append(*free, pages[i])
			pages[i] = nil
		}
	}
}

// ringHead returns the first non-empty bucket from cur, which holds the
// ring's earliest event; the ring must not be empty. Only the bucket at
// cur can be partly consumed, so head indexes into whichever it is.
func (c *calendar) ringHead() *bucket {
	t := c.cur
	for c.ring[t&(ringTicks-1)].n == 0 {
		t++
	}
	return &c.ring[t&(ringTicks-1)]
}

// peek returns the next event without removing it, or nil when empty. The
// pointer is into calendar storage and valid until the next push or pop.
func (c *calendar) peek() *event {
	var e *event
	if c.inRing > 0 {
		b := c.ringHead()
		e = &b.events[c.head/pageEvents][c.head%pageEvents]
	}
	if len(c.far) > 0 {
		if f := &c.far[0].ev; e == nil || f.before(e) {
			return f
		}
	}
	return e
}

// pop removes the next event and returns it with its payload; ok is false
// when the calendar is empty. The payload is valid until the next push.
func (c *calendar) pop() (e event, payload []byte, ok bool) {
	next := c.peek()
	if next == nil {
		return event{}, nil, false
	}
	if len(c.far) > 0 && next == &c.far[0].ev {
		if c.inRing == 0 {
			c.cur = next.time
		}
		f := c.far.pop()
		return f.ev, f.payload, true
	}
	e = *next
	c.cur = e.time
	b := &c.ring[e.time&(ringTicks-1)]
	if e.n > 0 {
		// Payloads are consumed in the order they were written, so every
		// byte page before this one is spent.
		p, o := int(e.off)/pageBytes, int(e.off)%pageBytes
		releasePages(&c.freeBytes, b.bytes, c.bhead, p)
		c.bhead = p
		payload = b.bytes[p][o : o+int(e.n) : o+int(e.n)]
	}
	c.inRing--
	switch c.head++; {
	case c.head == b.n: // the bucket is drained
		releasePages(&c.freeEvents, b.events, 0, len(b.events))
		releasePages(&c.freeBytes, b.bytes, c.bhead, len(b.bytes))
		b.events, b.bytes, b.n, b.used = b.events[:0], b.bytes[:0], 0, 0
		c.head, c.bhead = 0, 0
	case c.head%pageEvents == 0: // an event page is spent
		releasePages(&c.freeEvents, b.events, c.head/pageEvents-1, c.head/pageEvents)
	}
	return e, payload, true
}

// farSlot is one overflow-heap entry: an event and its payload bytes,
// which the slot owns. Heap moves swap whole slots, so every buffer stays
// with exactly one slot; a pop leaves the popped slot just past the
// heap's length, where its bytes stay readable until the next push reuses
// the slot and its buffer.
type farSlot struct {
	ev      event
	payload []byte
}

// farHeap is a binary min-heap of slots in (time, seq) order.
type farHeap []farSlot

func (h *farHeap) push(e event, payload []byte) {
	i := len(*h)
	if i < cap(*h) {
		*h = (*h)[:i+1]
	} else {
		*h = append(*h, farSlot{})
	}
	q := *h
	q[i].ev = e
	q[i].payload = append(q[i].payload[:0], payload...)
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].ev.before(&q[p].ev) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes the top slot and returns it; the caller reads it before the
// next push.
func (h *farHeap) pop() *farSlot {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && q[l].ev.before(&q[m].ev) {
			m = l
		}
		if r := 2*i + 2; r < n && q[r].ev.before(&q[m].ev) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q[:n]
	return &q[n]
}

// session is the transport state of one directed session. epoch and down
// belong to the undirected session: a reset writes both directions.
type session struct {
	sent    int    // messages sent so far (the next sseq)
	lastArr int64  // last delivery time (FIFO clamp)
	epoch   uint32 // incarnation
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

	// queue holds every scheduled event, in-flight messages with their
	// bytes; seq numbers pushes for its (time, seq) order.
	queue calendar
	seq   int64

	// wbuf is the sender's framing scratch: an UPDATE is encoded here and
	// push copies the bytes into the calendar, once per queued copy. sends
	// caches one SendFunc closure per router so refresh doesn't rebuild it
	// every activation.
	wbuf  []byte
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
// InjectAll or InjectPrefixAt (prefix 0).
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
		s.sends = append(s.sends, s.sendFrom(rt))
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

// sessionIndex returns the index in s.sess of the directed session
// u -> w; w must be a peer of u.
func (s *Sim) sessionIndex(u, w bgp.NodeID) int {
	i, _ := slices.BinarySearch(s.dom.Base().Peers(u), w)
	return s.sessOff[u] + i
}

// session returns the directed session u -> w; w must be a peer of u.
func (s *Sim) session(u, w bgp.NodeID) *session { return &s.sess[s.sessionIndex(u, w)] }

// SetFaults installs a fault plan on the router core, which draws and
// books every UPDATE's fate (router.Router.BookFate); the simulator turns
// each fate into arrival times and schedules the plan's session resets as
// PeerDown / PeerUp event pairs. Call it before Run, after the plan is
// final; resets naming sessions absent from the topology are ignored (they
// can occur in RandomPlan-derived schedules and would be no-ops anyway).
func (s *Sim) SetFaults(p *faults.Plan) error {
	if err := s.dom.SetFaults(p); err != nil || p == nil {
		return err
	}
	sys := s.dom.Base()
	for _, r := range p.Resets {
		if !sys.HasSession(r.A, r.B) {
			continue
		}
		// One event per endpoint and transition, so each router runs its
		// own flush-and-refresh in the normal event loop.
		a, b := uint32(r.A), uint32(r.B)
		s.push(event{time: r.At, kind: evPeerDown, from: a, to: b}, nil)
		s.push(event{time: r.At, kind: evPeerDown, from: b, to: a}, nil)
		s.push(event{time: r.At + r.Downtime, kind: evPeerUp, from: a, to: b}, nil)
		s.push(event{time: r.At + r.Downtime, kind: evPeerUp, from: b, to: a}, nil)
	}
	return nil
}

// InjectPrefixAt schedules the E-BGP injection of one prefix's path. It
// panics if the sim does not carry prefix or the prefix has no path id.
func (s *Sim) InjectPrefixAt(time int64, prefix uint32, id bgp.PathID) {
	s.pushExternal(time, evInject, prefix, id)
}

// WithdrawPrefixAt schedules the E-BGP withdrawal of one prefix's path. It
// panics like InjectPrefixAt.
func (s *Sim) WithdrawPrefixAt(time int64, prefix uint32, id bgp.PathID) {
	s.pushExternal(time, evWithdraw, prefix, id)
}

// pushExternal schedules an injection or withdrawal after checking it
// names a real route. A bad one is rejected here, at the caller's line,
// rather than as a nil dereference thousands of events into Run (the
// MustRandomDelay convention: a schedule is fixed by its author).
func (s *Sim) pushExternal(time int64, kind eventKind, prefix uint32, id bgp.PathID) {
	sys := s.dom.System(prefix)
	if sys == nil {
		panic(fmt.Errorf("msgsim: prefix %d path %d: the sim does not carry prefix %d", prefix, id, prefix))
	}
	if id < 0 || int(id) >= sys.NumExits() {
		panic(fmt.Errorf("msgsim: prefix %d path %d: the prefix has paths 0..%d", prefix, id, sys.NumExits()-1))
	}
	s.push(event{time: time, kind: kind, prefix: prefix, path: uint32(id)}, nil)
}

// InjectAll schedules every exit path of every prefix at time 0.
func (s *Sim) InjectAll() {
	for _, prefix := range s.dom.Prefixes() {
		for _, p := range s.dom.System(prefix).Exits() {
			s.InjectPrefixAt(0, prefix, p.ID)
		}
	}
}

// push numbers e and enqueues it with a copy of payload.
func (s *Sim) push(e event, payload []byte) {
	e.seq = s.seq
	s.seq++
	s.queue.push(e, payload)
}

// sendFrom builds the transport callback for router rt: have the core
// book the UPDATE's fault fate, encode it to wire bytes, pick the delay,
// clamp to FIFO order (unless a Reorder fate exempts it) and enqueue
// delivery.
func (s *Sim) sendFrom(rt *router.Router) router.SendFunc {
	u := rt.ID()
	return func(w bgp.NodeID, upd *wire.Update) (int64, error) {
		// The fate is booked before anything is framed: a dropped message
		// costs no encode.
		si := s.sessionIndex(u, w)
		sess := &s.sess[si]
		n := sess.sent
		sess.sent++
		fate, err := rt.BookFate(s.now, w, n)
		if err != nil {
			// The core counts the drop and rewinds its Adj-RIB-Out memory so
			// the diff stays owed. The retry flush re-runs the sender's
			// refresh one RTO later, and the re-send draws a fresh fate, so
			// once the plan's horizon passes the message gets through.
			s.push(event{time: s.now + router.DropRTO, kind: evFlush, from: uint32(u), to: uint32(w)}, nil)
			return -1, err
		}
		// Frame into the scratch buffer: the core's scratch Update must be
		// consumed before this callback returns, and push copies the bytes
		// into the calendar next to the event that delivers them.
		data, err := wire.AppendUpdate(s.wbuf[:0], upd)
		s.wbuf = data
		if err != nil {
			// The core only produces well-formed updates; an encode
			// failure is a codec bug and must not be silently dropped.
			panic(fmt.Sprintf("msgsim: encode %s -> %s: %v",
				s.dom.Base().Name(u), s.dom.Base().Name(w), err))
		}
		at := s.now + max(s.delay(u, w, n), 0) + fate.ExtraDelay
		if fate.Reorder {
			// Exempt from the FIFO clamp: this message may overtake earlier
			// ones still in flight. Their stale payloads are discarded at
			// delivery (see apply), as a sequence-numbered transport would.
			s.reorderSeen = true
		} else if at < sess.lastArr {
			at = sess.lastArr // FIFO: never overtake an earlier message
		}
		sess.lastArr = max(sess.lastArr, at)
		msg := event{time: at, kind: evMessage, from: uint32(u), to: uint32(w), sess: uint32(si), epoch: sess.epoch, sseq: uint32(n)}
		s.push(msg, data)
		if fate.Duplicate {
			// The copy (counted Sent by the core) barriers the FIFO clamp
			// like any message, so no later, newer state can be overtaken
			// by the stale copy.
			msg.time = max(at+fate.DupDelay, sess.lastArr)
			sess.lastArr = msg.time
			s.push(msg, data)
		}
		return at, nil
	}
}

// refresh runs the core refresh for one router and schedules any MRAI
// reopen callbacks it asks for.
func (s *Sim) refresh(u bgp.NodeID) {
	for _, d := range s.routers[u].Refresh(s.now, s.sends[u]) {
		s.push(event{time: d.ReadyAt, kind: evFlush, from: uint32(u), to: uint32(d.To)}, nil)
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
		return bgp.NodeID(ev.to)
	case evFlush, evPeerDown, evPeerUp:
		return bgp.NodeID(ev.from)
	default:
		return s.dom.System(ev.prefix).Exit(bgp.PathID(ev.path)).ExitPoint
	}
}

// apply mutates router state for one event without recomputing routes.
// payload is the message's bytes, a view into the calendar that apply
// consumes before anything is pushed.
func (s *Sim) apply(ev *event, payload []byte) {
	from, to := bgp.NodeID(ev.from), bgp.NodeID(ev.to)
	switch ev.kind {
	case evInject:
		p := s.dom.System(ev.prefix).Exit(bgp.PathID(ev.path))
		s.routers[p.ExitPoint].Inject(s.now, ev.prefix, p.ID)
	case evWithdraw:
		p := s.dom.System(ev.prefix).Exit(bgp.PathID(ev.path))
		s.routers[p.ExitPoint].WithdrawExternal(s.now, ev.prefix, p.ID)
	case evMessage:
		if sess := &s.sess[ev.sess]; sess.down || ev.epoch != sess.epoch {
			// Lost with the connection: a session reset kills every message
			// still in flight on it (RFC 4271 §8.2 semantics).
			s.counters.Dropped.Add(1)
			return
		}
		v, _, err := wire.DecodeView(payload)
		if err != nil {
			// Includes wire.ErrNotUpdate: only UPDATEs travel as payloads.
			panic(fmt.Sprintf("msgsim: decode on %s -> %s: %v",
				s.dom.Base().Name(from), s.dom.Base().Name(to), err))
		}
		// Sequence bookkeeping exists only to survive reorder-exempt
		// messages overtaking older ones; every other send is FIFO-clamped
		// per direction (see sendFrom), so until the fault plan produces
		// the first exempt send the maps stay untouched and unread.
		if s.reorderSeen {
			s.applySequenced(ev, v)
			return
		}
		if err := s.routers[to].ApplyUpdateView(s.now, from, v); err != nil {
			panic(fmt.Sprintf("msgsim: apply at %s: %v", s.dom.Base().Name(to), err))
		}
	case evFlush:
		s.routers[from].Reopen(to)
	case evPeerDown:
		if out, back := s.session(from, to), s.session(to, from); !out.down {
			// First endpoint of the pair bumps the shared session state:
			// the epoch invalidates in-flight messages, Resets counts the
			// reset once per session rather than once per end.
			s.counters.Resets.Add(1)
			out.down, out.epoch, out.lastArr = true, out.epoch+1, 0
			back.down, back.epoch, back.lastArr = true, back.epoch+1, 0
		}
		s.routers[from].PeerDown(s.now, to)
	case evPeerUp:
		s.session(from, to).down = false
		s.session(to, from).down = false
		s.routers[from].PeerUp(s.now, to)
	}
}

// applySequenced delivers one message on a run where reordering has
// become possible (a reorder-exempt send already happened): the
// per-session sequence maps are maintained, and an overtaken update is
// sequenced at route granularity instead of applied verbatim.
func (s *Sim) applySequenced(ev *event, v wire.UpdateView) {
	sess, n := &s.sess[ev.sess], int(ev.sseq)
	from, to := bgp.NodeID(ev.from), bgp.NodeID(ev.to)
	if sess.touched == nil {
		sess.touched = map[[2]uint32]int{}
	}
	if n < sess.delivSeq {
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
		upd := filterStale(sess.touched, n, v.Update())
		if err := s.routers[to].ApplyUpdate(s.now, from, &upd); err != nil {
			panic(fmt.Sprintf("msgsim: apply at %s: %v", s.dom.Base().Name(to), err))
		}
		return
	}
	sess.delivSeq = n
	recordTouched(sess.touched, n, v)
	if err := s.routers[to].ApplyUpdateView(s.now, from, v); err != nil {
		panic(fmt.Sprintf("msgsim: apply at %s: %v", s.dom.Base().Name(to), err))
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
	for s.events < maxEvents {
		ev, payload, ok := s.queue.pop()
		if !ok {
			break
		}
		s.now = ev.time
		s.events++
		who := s.target(&ev)
		s.apply(&ev, payload)
		// Batch: drain all same-instant events destined to this router.
		for next := s.queue.peek(); next != nil && next.time == s.now && s.target(next) == who; next = s.queue.peek() {
			ev, payload, _ := s.queue.pop()
			s.events++
			s.apply(&ev, payload)
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

// PossibleFor returns router u's candidate set for one prefix.
func (s *Sim) PossibleFor(prefix uint32, u bgp.NodeID) bgp.PathSet {
	return s.routers[u].Possible(prefix)
}

// AnnouncedFor returns the set router u offers its peers for one prefix,
// before the per-peer announcement rules.
func (s *Sim) AnnouncedFor(prefix uint32, u bgp.NodeID) bgp.PathSet {
	return s.routers[u].Announced(prefix)
}

// Upgraded reports whether router u switched to survivor advertisement for
// one prefix under the Adaptive policy.
func (s *Sim) Upgraded(prefix uint32, u bgp.NodeID) bool {
	return s.routers[u].Upgraded(prefix)
}

// Now returns the virtual clock.
func (s *Sim) Now() int64 { return s.now }
