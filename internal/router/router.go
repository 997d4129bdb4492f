// Package router is the transport-agnostic operational core of an I-BGP
// speaker: one Router per node owning the per-prefix RIBs (package rib),
// E-BGP inject/withdraw, update application, best-path refresh, per-peer
// diff/coalesce into wire.Update messages (one message per peer covering
// every prefix), and MRAI pacing. The core decides *what* to send and
// *when* a send must wait, and books the fault fate each send meets under
// a fault plan; the transport — the discrete-event simulator (package
// msgsim) or the TCP speakers (package speaker) — supplies the clock,
// moves the bytes, and schedules the MRAI reopen and drop retry callbacks. Both substrates therefore execute exactly the same Section 2
// reflection/refresh/coalesce logic, which is what makes the paper's
// "for every message ordering" quantification meaningful across them.
//
// Routers are single-owner: each is mutated from one goroutine at a time
// (msgsim is single-threaded, each speaker owns its core under its own
// lock). The shared Counters are atomic so a running network can be
// observed concurrently. With SetWorkers(n>1), Refresh internally fans the
// per-prefix recompute/diff phase over n goroutines, but the emitted
// UPDATE stream stays byte-identical to serial: the parallel phase is
// pure (per-prefix results land in per-prefix slots), and the send phase
// merges them serially in sorted prefix order.
package router

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/rib"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Domain is the shared multi-prefix description a substrate runs over:
// one topology.System per destination prefix, all sharing the identical
// session graph (router names, sessions and link costs) and differing only
// in their exit paths. Single-prefix deployments use prefix 0.
//
// Internally the systems live in a prefix-sorted slice with a dense
// prefix→index table, not a map: a domain of R routers × P prefixes is hit
// with an index lookup on every record of every UPDATE, and the slice form
// is what lets Router keep its per-prefix RIBs flat.
type Domain struct {
	base     *topology.System
	systems  []*topology.System // index-aligned with prefixes
	prefixes []uint32           // sorted ascending
	// doms is Choose^B tabulated per prefix (index-aligned with systems):
	// a function of the exit paths and the MED mode alone, so every
	// router's RIB shares it. Owned here, not by a package-level cache, so
	// the tables die with the domain.
	doms   []*selection.Dominance
	dense  []int32        // prefix → index, when prefixes are dense
	lookup map[uint32]int // fallback for sparse prefix spaces
	policy protocol.Policy
	opts   selection.Options
	// plan decides the fault fate of every UPDATE the domain's routers
	// send (see Router.BookFate); nil injects none.
	plan *faults.Plan
}

// NewDomain validates the per-prefix systems and fixes the prefix order.
// Systems built over the same session graph (the same *System for every
// prefix, or topology.WithExits overlays of one base) are recognised in
// O(1); independently built systems fall back to a full structural
// comparison.
func NewDomain(systems map[uint32]*topology.System, policy protocol.Policy, opts selection.Options) (*Domain, error) {
	if len(systems) == 0 {
		return nil, errors.New("router: no prefixes")
	}
	prefixes := make([]uint32, 0, len(systems))
	for p := range systems {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	syss := make([]*topology.System, len(prefixes))
	for i, p := range prefixes {
		sys := systems[p]
		if sys == nil {
			return nil, fmt.Errorf("router: prefix %d: nil system", p)
		}
		syss[i] = sys
	}
	base := syss[0]
	for i, p := range prefixes {
		if i == 0 || syss[i].SharesGraph(base) {
			continue
		}
		if err := sameTopology(base, syss[i]); err != nil {
			return nil, fmt.Errorf("router: prefix %d: %w", p, err)
		}
	}
	d := &Domain{base: base, systems: syss, prefixes: prefixes, policy: policy, opts: opts}
	d.doms = make([]*selection.Dominance, len(syss))
	for i, sys := range syss {
		d.doms[i] = selection.NewDominance(sys.Exits(), opts.MED)
	}
	// Index: a dense table when the prefix space is compact (the common
	// case — generated domains number prefixes 0..P-1), a map otherwise.
	if maxP := int(prefixes[len(prefixes)-1]); maxP < 2*len(prefixes)+64 {
		d.dense = make([]int32, maxP+1)
		for i := range d.dense {
			d.dense[i] = -1
		}
		for i, p := range prefixes {
			d.dense[p] = int32(i)
		}
	} else {
		d.lookup = make(map[uint32]int, len(prefixes))
		for i, p := range prefixes {
			d.lookup[p] = i
		}
	}
	return d, nil
}

// Single wraps one system as a prefix-0 domain; a lone system is always
// consistent, so construction cannot fail.
func Single(sys *topology.System, policy protocol.Policy, opts selection.Options) *Domain {
	d, err := NewDomain(map[uint32]*topology.System{0: sys}, policy, opts)
	if err != nil {
		panic("router: " + err.Error())
	}
	return d
}

// sameTopology checks that two systems differ only in their exit paths.
func sameTopology(a, b *topology.System) error {
	if a.N() != b.N() {
		return fmt.Errorf("router counts differ (%d vs %d)", a.N(), b.N())
	}
	for u := 0; u < a.N(); u++ {
		uid := bgp.NodeID(u)
		if a.Name(uid) != b.Name(uid) {
			return fmt.Errorf("router %d named %q vs %q", u, a.Name(uid), b.Name(uid))
		}
		if a.BGPID(uid) != b.BGPID(uid) {
			return fmt.Errorf("router %q BGP ids differ", a.Name(uid))
		}
		for v := 0; v < a.N(); v++ {
			vid := bgp.NodeID(v)
			if a.HasSession(uid, vid) != b.HasSession(uid, vid) {
				return fmt.Errorf("session %q-%q differs", a.Name(uid), a.Name(vid))
			}
			if a.Phys().EdgeCost(uid, vid) != b.Phys().EdgeCost(uid, vid) {
				return fmt.Errorf("link cost %q-%q differs", a.Name(uid), a.Name(vid))
			}
		}
	}
	return nil
}

// index returns the position of prefix in the sorted prefix slice, or -1
// when the domain does not carry it.
func (d *Domain) index(prefix uint32) int {
	if d.dense != nil {
		if int(prefix) >= len(d.dense) {
			return -1
		}
		return int(d.dense[prefix])
	}
	if i, ok := d.lookup[prefix]; ok {
		return i
	}
	return -1
}

// Base returns the session-graph system (the lowest prefix's).
func (d *Domain) Base() *topology.System { return d.base }

// Prefixes returns the carried prefixes, sorted ascending. The slice is
// the domain's own cached copy — shared, not re-allocated per call — so
// callers must not mutate it.
func (d *Domain) Prefixes() []uint32 { return d.prefixes }

// System returns the system for one prefix, or nil if not carried.
func (d *Domain) System(prefix uint32) *topology.System {
	if i := d.index(prefix); i >= 0 {
		return d.systems[i]
	}
	return nil
}

// SetFaults validates the fault plan against the session graph and
// installs it for every router's BookFate (nil removes it); the transports
// schedule its session resets. Call before the substrate starts.
func (d *Domain) SetFaults(p *faults.Plan) error {
	if p != nil {
		if err := p.Validate(d.base.N()); err != nil {
			return err
		}
	}
	d.plan = p
	return nil
}

// Faults returns the installed fault plan, or nil.
func (d *Domain) Faults() *faults.Plan { return d.plan }

// SendFunc transmits one coalesced UPDATE to a peer. It returns the
// transport's arrival time for the message (simulated-clock substrates) or
// a negative value when arrival is unknown (TCP), and an error when the
// session is unusable — the core then counts the message as dropped and
// moves on to the next peer.
type SendFunc func(to bgp.NodeID, upd *wire.Update) (arriveAt int64, err error)

// DropRTO is the retry backoff after a fault-dropped UPDATE in transport
// clock units (ticks in msgsim, milliseconds on TCP): the transport re-runs
// the sender's refresh this much later, the repair TCP retransmission gives
// a real speaker.
const DropRTO = 17

// errFaultDrop is BookFate's verdict on a dropped UPDATE; the SendFunc
// returns it to Refresh, which counts the loss and leaves the diff owed.
var errFaultDrop = errors.New("router: fault plan dropped the message")

// BookFate draws the fault fate of the seq-th UPDATE this router sends to
// w (seq counts the transport's sends on the session) and books it: the
// fault counters and Fault* events, emitted through the core's sink ahead
// of the UpdateSent they modify — FaultDrop alone, returning errFaultDrop,
// or Delay, Reorder, Duplicate in that order. A SendFunc calls it before
// moving any bytes and keeps only the timing. A duplicate is counted Sent
// here; a transport that cannot queue the copy counts it Dropped.
func (r *Router) BookFate(now int64, w bgp.NodeID, seq int) (faults.Fate, error) {
	f := r.dom.plan.Fate(now, r.id, w, seq)
	if f.Drop {
		r.counters.FaultDrops.Add(1)
		r.emit(Event{Kind: FaultDrop, Time: now, Node: r.id, Peer: w})
		return f, errFaultDrop
	}
	if f.ExtraDelay > 0 {
		r.counters.FaultDelays.Add(1)
		r.emit(Event{Kind: FaultDelay, Time: now, Node: r.id, Peer: w, ReadyAt: f.ExtraDelay})
	}
	if f.Reorder {
		r.counters.FaultReorders.Add(1)
		r.emit(Event{Kind: FaultReorder, Time: now, Node: r.id, Peer: w})
	}
	if f.Duplicate {
		r.counters.Sent.Add(1)
		r.counters.FaultDups.Add(1)
		r.emit(Event{Kind: FaultDuplicate, Time: now, Node: r.id, Peer: w, ReadyAt: f.DupDelay})
	}
	return f, nil
}

// Deferral asks the transport to call Reopen(To) followed by Refresh once
// its clock reaches ReadyAt: the MRAI window on the session to To is
// closed and the core owes that peer an UPDATE.
type Deferral struct {
	To      bgp.NodeID
	ReadyAt int64
}

// diffSlot holds one (dirty prefix, peer) cell of a refresh round: the
// announce/withdraw diff the parallel phase computed and the serial phase
// either commits (ApplyDiff after a successful send) or leaves owed.
type diffSlot struct {
	ann, wd []bgp.PathID
}

// bestChange records one dirty prefix's decision-process outcome so the
// serial phase can emit BestChanged events in ascending prefix order.
type bestChange struct {
	old, nw bgp.PathID
	changed bool
}

// Router is the operational core of one I-BGP speaker.
type Router struct {
	dom  *Domain
	id   bgp.NodeID
	ribs []*rib.RIB // index-aligned with dom.prefixes

	// peering is the per-router peer table shared by all of this router's
	// RIBs (the session graph is prefix-independent).
	peering *rib.Peering

	// MRAI state, in transport clock units: earliest next send per peer,
	// and the peers with a reopen callback already requested. All per-peer
	// state is indexed by peer position (peering.Index).
	mrai     int64
	nextSend []int64
	pending  []bool

	// down marks peers whose session is currently dead: their updates are
	// discarded and the refresh fan-out skips them until PeerUp.
	down []bool

	counters *Counters
	sink     func(Event)

	// started latches once the first operation mutates the core; Events
	// rejects registrations after that point (set-once-before-start).
	started bool

	// dirty marks the prefixes whose RIB contents changed since they were
	// last fully flushed; Refresh recomputes only those. The invariant that
	// makes the skip observation-equivalent: a clean prefix owes no peer an
	// UPDATE (every diff was empty or committed), and RecomputeBest is a
	// pure function of RIB contents, so re-running it on a clean prefix
	// could emit nothing. dirtyIdx lists the marked prefixes in marking
	// order, so a refresh with one dirty prefix never scans all P flags.
	dirty    []bool
	dirtyIdx []int

	// workers is the fan-out of the per-prefix recompute/diff phase;
	// scratches holds one decision-process scratch per worker, shared by
	// the RIBs of that worker's shard. maxExits sizes new scratches.
	workers   int
	scratches []*rib.Scratch
	maxExits  int

	// Per-round reusable storage: slot(di, pj) = slots[di*numPeers+pj],
	// the per-(dirty prefix, peer) diffs of the parallel phase; changed
	// mirrors dirtyIdx; uncommitted marks peers whose owed diff was
	// MRAI-gated or whose send failed (those prefixes stay dirty).
	slots       []diffSlot
	changed     []bestChange
	uncommitted []bool

	// Refresh/apply scratch, reused across rounds: the outbound coalesced
	// UPDATE handed to the transport and the event sink (both must consume
	// it before the call returns) and the received-update materialisation
	// for UpdateReceived events on the view path. Single-owner like the
	// Router itself.
	txUpd wire.Update
	rxUpd wire.Update
}

// NewRouter builds the core for node id, accumulating into counters
// (shared across the substrate's routers; must be non-nil).
func (d *Domain) NewRouter(id bgp.NodeID, counters *Counters) *Router {
	np := len(d.prefixes)
	r := &Router{
		dom:      d,
		id:       id,
		ribs:     make([]*rib.RIB, np),
		peering:  rib.NewPeering(d.base, id),
		counters: counters,
		workers:  1,
	}
	npeers := len(r.peering.Peers())
	r.nextSend = make([]int64, npeers)
	r.pending = make([]bool, npeers)
	r.down = make([]bool, npeers)
	maxExits := 0
	for i := range d.prefixes {
		if n := d.systems[i].NumExits(); n > maxExits {
			maxExits = n
		}
	}
	r.maxExits = maxExits
	r.scratches = []*rib.Scratch{rib.NewScratch(maxExits)}
	for i := range d.prefixes {
		r.ribs[i] = rib.NewShared(d.systems[i], d.policy, d.opts, id, r.peering, r.scratches[0], d.doms[i])
	}
	// Everything starts dirty: the first refresh after construction must
	// look at every prefix (an empty RIB flushes to nothing, so this only
	// costs one pass).
	r.dirty = make([]bool, np)
	r.dirtyIdx = make([]int, 0, np)
	r.markAllDirty()
	r.changed = make([]bestChange, 0, np)
	r.uncommitted = make([]bool, npeers)
	// Pre-size the flush scratch to the topology's bounds so fresh routers
	// don't pay append-growth allocations on their first refreshes.
	r.txUpd.Withdrawn = make([]wire.WithdrawnRoute, 0, maxExits)
	r.txUpd.Announced = make([]wire.RouteRecord, 0, maxExits)
	return r
}

// ID returns the node this core belongs to.
func (r *Router) ID() bgp.NodeID { return r.id }

// Events registers the typed event sink (nil disables). The sink is part
// of the core's wiring, not of its running state: it must be installed
// before the first operation (inject, withdraw, update, refresh, peer
// transition) mutates the router. Registering later panics — a sink
// attached mid-run would observe a torn stream, and on the concurrent TCP
// substrate the bare field write would race the speaker goroutines. To
// feed several observers, register a Mux's Batch here, flush it after each
// round, and Add sinks to the Mux before the run starts.
func (r *Router) Events(fn func(Event)) {
	if r.started {
		panic("router: Events registered after the core started; install sinks before the first operation")
	}
	r.sink = fn
}

func (r *Router) emit(ev Event) {
	if r.sink != nil {
		r.sink(ev)
	}
}

// SetMRAI sets the per-session minimum route advertisement interval in
// transport clock units (0 disables, negative clamps to 0). MRAI damps
// update bursts — it merges an announcement with its own correction — but
// cannot create stability where no stable solution exists.
func (r *Router) SetMRAI(d int64) {
	if d < 0 {
		d = 0
	}
	r.mrai = d
}

// MRAI returns the configured interval.
func (r *Router) MRAI() int64 { return r.mrai }

// SetWorkers sets how many goroutines Refresh fans the per-prefix
// recompute/diff phase over (values below 2, or rounds with fewer dirty
// prefixes than workers, run serially with zero goroutines). The emitted
// UPDATE stream is byte-identical for every value: the parallel phase is
// pure and lands per-prefix results in per-prefix slots, and the send
// phase merges them serially in sorted prefix order. Configure before the
// substrate starts, like SetMRAI.
func (r *Router) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.workers = n
	for len(r.scratches) < n {
		r.scratches = append(r.scratches, rib.NewScratch(r.maxExits))
	}
}

// Workers returns the configured refresh fan-out.
func (r *Router) Workers() int { return r.workers }

// markAllDirty schedules every prefix for the next refresh (peer
// transitions invalidate per-peer advertisement memory across the board).
func (r *Router) markAllDirty() {
	r.dirtyIdx = r.dirtyIdx[:0]
	for i := range r.dirty {
		r.dirty[i] = true
		r.dirtyIdx = append(r.dirtyIdx, i)
	}
}

// markDirty schedules prefix index i for the next refresh.
func (r *Router) markDirty(i int) {
	if !r.dirty[i] {
		r.dirty[i] = true
		r.dirtyIdx = append(r.dirtyIdx, i)
	}
}

// Inject records an E-BGP injection of one prefix's path at this router.
func (r *Router) Inject(now int64, prefix uint32, id bgp.PathID) {
	r.started = true
	i := r.dom.index(prefix)
	if i < 0 {
		return
	}
	r.emit(Event{Kind: Injected, Time: now, Node: r.id, Prefix: prefix, Path: id})
	r.ribs[i].Inject(id)
	r.markDirty(i)
}

// WithdrawExternal records an E-BGP withdrawal of one prefix's path.
func (r *Router) WithdrawExternal(now int64, prefix uint32, id bgp.PathID) {
	r.started = true
	i := r.dom.index(prefix)
	if i < 0 {
		return
	}
	r.emit(Event{Kind: Withdrawn, Time: now, Node: r.id, Prefix: prefix, Path: id})
	r.ribs[i].WithdrawExternal(id)
	r.markDirty(i)
}

// ApplyUpdate merges one received UPDATE into the per-prefix RIBs after
// decode-side validation against the domain's topologies. Invalid updates
// are rejected whole: counted, reported, and not applied. Updates from a
// peer whose session is down are a transport bug backstop: discarded and
// counted as dropped (the session that carried them no longer exists).
func (r *Router) ApplyUpdate(now int64, from bgp.NodeID, upd *wire.Update) error {
	r.started = true
	pos := r.peering.Index(from)
	if pos >= 0 && r.down[pos] {
		r.counters.Dropped.Add(1)
		return fmt.Errorf("router: update from down peer %d", from)
	}
	if err := upd.Validate(r.bounds); err != nil {
		r.counters.Rejected.Add(1)
		return err
	}
	if pos >= 0 { // a non-peer has no Adj-RIB-In: its update changes nothing
		for _, rec := range upd.Announced {
			if i := r.dom.index(rec.Prefix); i >= 0 {
				r.ribs[i].LearnAt(pos, bgp.PathID(rec.PathID))
				r.markDirty(i)
			}
		}
		for _, w := range upd.Withdrawn {
			if i := r.dom.index(w.Prefix); i >= 0 {
				r.ribs[i].UnlearnAt(pos, bgp.PathID(w.PathID))
				r.markDirty(i)
			}
		}
	}
	r.counters.Received.Add(1)
	r.emit(Event{Kind: UpdateReceived, Time: now, Node: r.id, Peer: from, Update: upd})
	return nil
}

// ApplyUpdateView merges one received UPDATE directly from its zero-copy
// wire view, without materialising record slices — the hot-path twin of
// ApplyUpdate for transports that decode with wire.DecodeView. The view's
// backing buffer must stay untouched for the duration of the call; nothing
// of it is retained. When an event sink is installed, the records are
// copied into the router's own scratch Update for the UpdateReceived
// event, so recycling the buffer afterwards is always safe.
func (r *Router) ApplyUpdateView(now int64, from bgp.NodeID, v wire.UpdateView) error {
	r.started = true
	pos := r.peering.Index(from)
	if pos >= 0 && r.down[pos] {
		r.counters.Dropped.Add(1)
		return fmt.Errorf("router: update from down peer %d", from)
	}
	if err := v.Validate(r.bounds); err != nil {
		r.counters.Rejected.Add(1)
		return err
	}
	if pos >= 0 { // as in ApplyUpdate
		for i, n := 0, v.NumAnnounced(); i < n; i++ {
			rec := v.AnnouncedAt(i)
			if pi := r.dom.index(rec.Prefix); pi >= 0 {
				r.ribs[pi].LearnAt(pos, bgp.PathID(rec.PathID))
				r.markDirty(pi)
			}
		}
		for i, n := 0, v.NumWithdrawn(); i < n; i++ {
			wd := v.WithdrawnAt(i)
			if pi := r.dom.index(wd.Prefix); pi >= 0 {
				r.ribs[pi].UnlearnAt(pos, bgp.PathID(wd.PathID))
				r.markDirty(pi)
			}
		}
	}
	r.counters.Received.Add(1)
	if r.sink != nil {
		v.AppendTo(&r.rxUpd)
		r.sink(Event{Kind: UpdateReceived, Time: now, Node: r.id, Peer: from, Update: &r.rxUpd})
	}
	return nil
}

// bounds adapts the domain's per-prefix systems for wire validation.
func (r *Router) bounds(prefix uint32) wire.System {
	if i := r.dom.index(prefix); i >= 0 {
		return r.dom.systems[i]
	}
	return nil
}

// Refresh re-runs the decision process on every dirty prefix and pushes
// the owed UPDATEs — one coalesced wire message per peer — through send,
// subject to per-session MRAI gating. It returns the newly created
// deferrals the transport must schedule.
//
// The work splits into a pure parallel phase and a serial merge. Phase A
// fans the dirty prefixes over the worker pool: each worker recomputes
// best routes, prepares the flush, and writes per-(prefix, peer)
// announce/withdraw diffs into its shard's slots — no events, no
// counters, no sends. Phase B then walks peers in session order, merging
// each peer's slots in ascending prefix order into one coalesced UPDATE
// and committing the diff only after the transport accepted it. Because
// the slots are keyed by (prefix, peer) and the merge order is fixed, the
// byte stream is identical for every worker count.
func (r *Router) Refresh(now int64, send SendFunc) []Deferral {
	r.started = true
	nd := len(r.dirtyIdx)
	if nd == 0 {
		return nil
	}
	if nd > 1 {
		sort.Ints(r.dirtyIdx) // marked in arrival order, merged ascending
	}
	peers := r.peering.Peers()
	np := len(peers)
	for len(r.slots) < nd*np {
		r.slots = append(r.slots, diffSlot{})
	}
	for len(r.changed) < nd {
		r.changed = append(r.changed, bestChange{})
	}

	// Phase A: pure per-prefix computation.
	workers := r.workers
	if workers > nd {
		workers = nd
	}
	if workers <= 1 {
		r.computeShard(0, 0, nd)
	} else {
		var wg sync.WaitGroup
		chunk := (nd + workers - 1) / workers
		for wk := 0; wk < workers; wk++ {
			lo := wk * chunk
			hi := lo + chunk
			if hi > nd {
				hi = nd
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(wk, lo, hi int) {
				defer wg.Done()
				r.computeShard(wk, lo, hi)
			}(wk, lo, hi)
		}
		wg.Wait()
	}

	// Phase B: serial merge. Best-route events first, in ascending prefix
	// order (the order the serial recompute loop used to emit them in).
	for di := 0; di < nd; di++ {
		if c := r.changed[di]; c.changed {
			r.counters.Flaps.Add(1)
			r.emit(Event{Kind: BestChanged, Time: now, Node: r.id,
				Prefix: r.dom.prefixes[r.dirtyIdx[di]], OldBest: c.old, NewBest: c.nw})
		}
	}
	var defs []Deferral
	for pj, w := range peers {
		r.uncommitted[pj] = false
		if r.down[pj] {
			continue
		}
		owed := false
		for di := 0; di < nd; di++ {
			if s := &r.slots[di*np+pj]; len(s.ann) > 0 || len(s.wd) > 0 {
				owed = true
				break
			}
		}
		if !owed {
			continue
		}
		if r.mrai > 0 && now < r.nextSend[pj] {
			r.uncommitted[pj] = true
			if !r.pending[pj] {
				r.pending[pj] = true
				r.counters.Deferrals.Add(1)
				r.emit(Event{Kind: MRAIDeferred, Time: now, Node: r.id, Peer: w, ReadyAt: r.nextSend[pj]})
				defs = append(defs, Deferral{To: w, ReadyAt: r.nextSend[pj]})
			}
			continue
		}
		upd := &r.txUpd
		upd.Withdrawn = upd.Withdrawn[:0]
		upd.Announced = upd.Announced[:0]
		for di := 0; di < nd; di++ {
			pi := r.dirtyIdx[di]
			prefix := r.dom.prefixes[pi]
			s := &r.slots[di*np+pj]
			for _, id := range s.wd {
				upd.Withdrawn = append(upd.Withdrawn, wire.WithdrawnRoute{Prefix: prefix, PathID: uint32(id)})
			}
			for _, id := range s.ann {
				rec := wire.FromExitPath(r.dom.systems[pi].Exit(id))
				rec.Prefix = prefix
				upd.Announced = append(upd.Announced, rec)
			}
		}
		r.nextSend[pj] = now + r.mrai
		// Sent is incremented before the transport writes so a concurrent
		// quiescence probe never sees the receipt before the send. A refused
		// send stays in Sent and is additionally counted in Dropped: the
		// quiescence ledger is Sent == Received + Rejected + Dropped, so a
		// probe between the two increments reads the conservative
		// (non-quiescent) side.
		r.counters.Sent.Add(1)
		arriveAt, err := send(w, upd)
		if err != nil {
			// The message is lost, so nothing is committed: the diff stays
			// owed (the prefix stays dirty) and a later refresh re-sends it
			// — the same repair TCP retransmission gives a real speaker.
			// Without it one lost UPDATE would leave the peer stale forever.
			r.uncommitted[pj] = true
			r.counters.Dropped.Add(1)
			continue
		}
		for di := 0; di < nd; di++ {
			if s := &r.slots[di*np+pj]; len(s.ann) > 0 || len(s.wd) > 0 {
				r.ribs[r.dirtyIdx[di]].ApplyDiffAt(pj, s.ann, s.wd)
			}
		}
		r.emit(Event{Kind: UpdateSent, Time: now, Node: r.id, Peer: w, Update: upd, ArriveAt: arriveAt})
	}
	// A prefix goes clean only when every up peer's diff was empty or
	// committed; an MRAI-gated or send-failed diff keeps it dirty — carried
	// over at the front of the list — so the reopen/retry refresh
	// recomputes it.
	owed := r.dirtyIdx[:0]
	for di := 0; di < nd; di++ {
		still := false
		base := di * np
		for pj := range peers {
			if s := &r.slots[base+pj]; (len(s.ann) > 0 || len(s.wd) > 0) && r.uncommitted[pj] {
				still = true
				break
			}
		}
		if pi := r.dirtyIdx[di]; still {
			owed = append(owed, pi)
		} else {
			r.dirty[pi] = false
		}
	}
	r.dirtyIdx = owed
	return defs
}

// computeShard runs phase A for dirtyIdx[lo:hi] with worker wk's scratch:
// recompute best, prepare the flush, and fill the per-peer diff slots. It
// touches no counters, emits no events and sends nothing, so shards are
// free of cross-worker effects; down-peer slots stay empty (what a dead
// session is owed is recomputed from scratch at PeerUp).
func (r *Router) computeShard(wk, lo, hi int) {
	scr := r.scratches[wk]
	np := len(r.peering.Peers())
	for di := lo; di < hi; di++ {
		rb := r.ribs[r.dirtyIdx[di]]
		rb.SetScratch(scr)
		old := rb.Best()
		ch := rb.RecomputeBest()
		r.changed[di] = bestChange{old: old, nw: rb.Best(), changed: ch}
		rb.PrepareFlush()
		base := di * np
		for pj := 0; pj < np; pj++ {
			s := &r.slots[base+pj]
			s.ann, s.wd = s.ann[:0], s.wd[:0]
			if r.down[pj] {
				continue
			}
			s.ann, s.wd = rb.DiffAt(pj, s.ann, s.wd)
		}
	}
}

// Reopen marks peer w's scheduled MRAI flush as delivered; the transport
// calls it when a Deferral fires, immediately before Refresh.
func (r *Router) Reopen(w bgp.NodeID) {
	r.started = true
	if pos := r.peering.Index(w); pos >= 0 {
		r.pending[pos] = false
	}
}

// PeerDown records the death of the session to peer w (RFC 4271 §8.2):
// every route learned from w is flushed from all per-prefix RIBs, the
// advertisement memory toward w is forgotten (a reopened session starts
// from an empty peer), and the per-session MRAI state is reset. The
// transport calls Refresh next so withdrawals of the flushed routes
// propagate to the surviving peers. Idempotent; returns the number of
// routes flushed.
func (r *Router) PeerDown(now int64, w bgp.NodeID) int {
	r.started = true
	pos := r.peering.Index(w)
	if pos < 0 || r.down[pos] {
		return 0
	}
	r.down[pos] = true
	flushed := 0
	for i := range r.ribs {
		flushed += r.ribs[i].PeerDown(pos)
	}
	r.nextSend[pos] = 0
	r.pending[pos] = false
	r.markAllDirty()
	r.counters.Flushed.Add(int64(flushed))
	r.emit(Event{Kind: PeerDown, Time: now, Node: r.id, Peer: w, Flushed: flushed})
	return flushed
}

// PeerUp records the re-establishment of the session to peer w. The next
// Refresh re-advertises the full current target set (PeerDown cleared the
// last-sent memory), restoring the peer's state as BGP route refresh
// would. Idempotent.
func (r *Router) PeerUp(now int64, w bgp.NodeID) {
	r.started = true
	pos := r.peering.Index(w)
	if pos < 0 || !r.down[pos] {
		return
	}
	r.down[pos] = false
	r.markAllDirty()
	r.emit(Event{Kind: PeerUp, Time: now, Node: r.id, Peer: w})
}

// peerIsDown reports whether the session to w is currently dead.
func (r *Router) peerIsDown(w bgp.NodeID) bool {
	pos := r.peering.Index(w)
	return pos >= 0 && r.down[pos]
}

// Best returns the current best path for one prefix, or bgp.None.
func (r *Router) Best(prefix uint32) bgp.PathID {
	if i := r.dom.index(prefix); i >= 0 {
		return r.ribs[i].Best()
	}
	return bgp.None
}

// Possible returns the current candidate set for one prefix.
func (r *Router) Possible(prefix uint32) bgp.PathSet {
	if i := r.dom.index(prefix); i >= 0 {
		return r.ribs[i].Possible()
	}
	return bgp.PathSet{}
}

// Announced returns the set this router offers its peers for one prefix,
// before the per-peer announcement rules (rib.RIB.Announced).
func (r *Router) Announced(prefix uint32) bgp.PathSet {
	if i := r.dom.index(prefix); i >= 0 {
		return r.ribs[i].Announced()
	}
	return bgp.PathSet{}
}

// Upgraded reports whether this router switched to survivor advertisement
// for one prefix under the Adaptive policy.
func (r *Router) Upgraded(prefix uint32) bool {
	if i := r.dom.index(prefix); i >= 0 {
		return r.ribs[i].Upgraded()
	}
	return false
}
