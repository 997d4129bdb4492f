// Package rib implements the operational per-router state of an I-BGP
// speaker: the per-peer Adj-RIB-In, the locally injected E-BGP routes, the
// best-route decision process and the route-reflection announcement rules
// of Section 2. It is shared by the discrete-event simulator (package
// msgsim) and the TCP speakers (package speaker) so that both substrates
// run exactly the same protocol logic.
package rib

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// Peering is the immutable peer table of one router: the sorted I-BGP peer
// list plus, per peer position, the two facts the decision process asks of
// a peer. The table depends only on the session graph, which every prefix
// of a multi-prefix domain shares, so one Peering serves all P of a
// router's RIBs. Everything downstream is indexed by peer position; a
// NodeID is resolved once per UPDATE (Index), not once per record.
type Peering struct {
	peers  []bgp.NodeID
	served []bool // served[i]: peers[i] is a served member of this router
	bgpID  []int  // BGP identifier of peers[i] (rule 6's learnedFrom)
}

// NewPeering builds the peer table of router id over sys's session graph.
func NewPeering(sys *topology.System, id bgp.NodeID) *Peering {
	peers := sys.Peers(id)
	pg := &Peering{peers: peers, served: make([]bool, len(peers)), bgpID: make([]int, len(peers))}
	for i, w := range peers {
		pg.served[i] = sys.ServedBy(w, id)
		pg.bgpID[i] = sys.BGPID(w)
	}
	return pg
}

// Peers returns the peer list in increasing node order. Callers must not
// mutate it.
func (p *Peering) Peers() []bgp.NodeID { return p.peers }

// Index returns w's position in Peers, or -1 when w is not a peer.
func (p *Peering) Index(w bgp.NodeID) int {
	if i, ok := slices.BinarySearch(p.peers, w); ok {
		return i
	}
	return -1
}

// RIB is the state of one I-BGP speaker for one prefix. It is not safe for
// concurrent use; callers serialise access (msgsim is single-threaded,
// speaker routers own their RIBs from a single goroutine, and the parallel
// refresh in package router hands each RIB to exactly one worker per
// round).
type RIB struct {
	sys    *topology.System
	dom    *selection.Dominance // Choose^B over sys's exits; shared, immutable
	policy protocol.Policy
	opts   selection.Options
	id     bgp.NodeID

	// pg is the fixed I-BGP peer table. The peer-position index space never
	// changes after New (sessions are configured, not discovered).
	pg *Peering

	// sets is the one slab behind every path set of the RIB, w words each:
	// set 0 is myExits, set 1+i the Adj-RIB-In of peer position i, set
	// 1+np+i what was last advertised to it. One allocation and no per-set
	// headers: at R routers x P prefixes the headers outweighed the bits.
	sets []uint64

	// metric caches metric(route(p, id))+1 per path (0: not yet computed),
	// one RIB-local line in place of a cold all-pairs row per candidate.
	// Made on first use, written only by the RIB's owner for the round; a
	// metric too wide for an entry is recomputed every time.
	metric []int32

	best bgp.PathID

	// Adaptive-policy state (protocol.Adaptive only): revisit count, the
	// set of best routes held before, and whether this router has switched
	// to survivor advertisement.
	flaps    int
	heldBest bgp.PathSet
	upgraded bool
	w        int32 // words per set

	// scr is the per-refresh-round reusable storage that makes the
	// RecomputeBest → PrepareFlush → per-peer DiffInto/ApplyDiff cycle
	// allocation-free once warm. Single-owner at any instant; a
	// multi-prefix router shares one Scratch per worker across its RIBs
	// (SetScratch) because the prepared state never outlives one prefix's
	// recompute-and-diff step.
	scr *Scratch
}

// Scratch holds the decision-process working set. Every slice is reused
// via the append(x[:0], ...) idiom; every PathSet via Copy/Clear. The
// prepared-flush state (surv from RecomputeBest; want/kinds/origins, and
// target while diffing) is only valid between one RIB's RecomputeBest and
// the next RIB touching the Scratch, which is why sharing is per-worker,
// never per-round.
type Scratch struct {
	possible bgp.PathSet  // candidate path IDs
	surv     bgp.PathSet  // Choose^B(possible)
	ids      []bgp.PathID // the set being materialised, flattened
	cands    []bgp.Route  // materialised routes (consumed by selection)

	want    []bgp.PathID // the advertise set, ascending (PrepareFlush)
	kinds   []int8       // sourceKind per want entry
	origins []int32      // origin peer position per want entry

	target bgp.PathSet // per-peer target (DiffInto)
}

// NewScratch pre-sizes a decision-process scratch for systems of up to n
// exit paths (every working set is at most the exit-path count), so
// short-lived routers — a soak round's fresh sim, a census shard — don't
// pay append-growth allocations on their first refreshes before the
// scratch warms. A larger system degrades to append growth, never to
// corruption.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	pid := make([]bgp.PathID, 2*n)
	s.ids = pid[0:0:n]
	s.want = pid[n : n : 2*n]
	s.cands = make([]bgp.Route, 0, n)
	s.kinds = make([]int8, 0, n)
	s.origins = make([]int32, 0, n)
	s.possible.Grow(n)
	s.surv.Grow(n)
	s.target.Grow(n)
	return s
}

// New returns an empty RIB for router id with its own peer table, scratch
// and dominance table.
func New(sys *topology.System, policy protocol.Policy, opts selection.Options, id bgp.NodeID) *RIB {
	return NewShared(sys, policy, opts, id, nil, nil, nil)
}

// NewShared returns an empty RIB for router id reusing a shared peer
// table, scratch and dominance table. Any may be nil, in which case the RIB
// builds its own. The peer table must have been built for the same router
// over the same session graph and the dominance table for sys's exits
// under opts.MED; the scratch must be sized for at least this system's
// exit count to stay allocation-free (a smaller one still computes
// correctly).
func NewShared(sys *topology.System, policy protocol.Policy, opts selection.Options, id bgp.NodeID,
	pg *Peering, scr *Scratch, dom *selection.Dominance) *RIB {
	if pg == nil {
		pg = NewPeering(sys, id)
	}
	if scr == nil {
		scr = NewScratch(sys.NumExits())
	}
	if dom == nil {
		dom = selection.NewDominance(sys.Exits(), opts.MED)
	}
	w := (sys.NumExits() + 63) / 64
	return &RIB{
		sys:    sys,
		dom:    dom,
		policy: policy,
		opts:   opts,
		id:     id,
		pg:     pg,
		scr:    scr,
		best:   bgp.None,
		sets:   make([]uint64, (1+2*len(pg.peers))*w),
		w:      int32(w),
	}
}

// SetScratch points the RIB at a different scratch. The parallel refresh
// uses this to hand each worker's scratch to the RIBs of its shard; any
// prepared-flush state in the previous scratch is abandoned.
func (r *RIB) SetScratch(s *Scratch) { r.scr = s }

// The slab's set numbering.
const myExits = 0

func (r *RIB) adjIn(i int) int    { return 1 + i }
func (r *RIB) lastSent(i int) int { return 1 + len(r.pg.peers) + i }

// words returns set k's words in the slab.
func (r *RIB) words(k int) []uint64 { return r.sets[k*int(r.w) : (k+1)*int(r.w)] }

// set views set k of the slab as a PathSet, for reads and Clear: an Add
// past the view's width would detach it from the slab (bgp.PathSetOver),
// so single-path writes go through at, which bounds the ID first.
func (r *RIB) set(k int) bgp.PathSet { return bgp.PathSetOver(r.words(k)) }

// at returns the slab word and mask of path id in set k. An id beyond the
// slab's width has no bit to live in; rather than let it vanish, at panics
// — what such an id always came to one step later, when the decision
// process looked its exit path up (package router validates received
// records, so only a bug gets here).
func (r *RIB) at(k int, id bgp.PathID) (*uint64, uint64) {
	if uint(id) >= uint(r.w)*64 {
		panic("rib: path id outside the system's exit paths")
	}
	return &r.sets[k*int(r.w)+int(id)/64], 1 << (uint(id) % 64)
}

// ID returns the router this RIB belongs to.
func (r *RIB) ID() bgp.NodeID { return r.id }

// Best returns the current best path, or bgp.None.
func (r *RIB) Best() bgp.PathID { return r.best }

// bestRoute materialises the current best route.
func (r *RIB) bestRoute() (bgp.Route, bool) {
	if r.best == bgp.None {
		return bgp.Route{}, false
	}
	p := &r.sys.Exits()[r.best]
	return r.sys.Route(r.id, *p, r.learnedFrom(p)), true
}

// Possible returns the current candidate set: own exits plus everything in
// the Adj-RIB-Ins.
func (r *RIB) Possible() bgp.PathSet {
	var out bgp.PathSet
	r.possibleInto(&out)
	return out
}

// MyExits returns the current locally injected exit set.
func (r *RIB) MyExits() bgp.PathSet { return r.set(myExits).Clone() }

// AdjIn returns the paths peer w currently advertises to this router.
func (r *RIB) AdjIn(w bgp.NodeID) bgp.PathSet {
	if i := r.pg.Index(w); i >= 0 {
		return r.set(r.adjIn(i)).Clone()
	}
	return bgp.PathSet{}
}

// Inject records an E-BGP injection of path id at this router.
func (r *RIB) Inject(id bgp.PathID) {
	word, bit := r.at(myExits, id)
	*word |= bit
}

// WithdrawExternal records an E-BGP withdrawal of path id.
func (r *RIB) WithdrawExternal(id bgp.PathID) {
	word, bit := r.at(myExits, id)
	*word &^= bit
}

// PeerDown implements the RFC 4271 §8.2 session-loss semantics for the
// peer at position i: every route learned from it is deleted from its
// Adj-RIB-In, and the advertisement memory toward it is forgotten — after
// the session re-establishes, the whole current target set must be
// re-advertised because the peer rebuilt its own state from scratch. It
// returns the number of routes flushed. Callers re-run the decision
// process next (RecomputeBest); until then Possible may still surface the
// dead routes of other peers, never this one's.
func (r *RIB) PeerDown(i int) (flushed int) {
	in, out := r.set(r.adjIn(i)), r.set(r.lastSent(i))
	flushed = in.Len()
	in.Clear()
	out.Clear()
	return flushed
}

// learnedFrom computes the selection tie-break attribution of path p.
func (r *RIB) learnedFrom(p *bgp.ExitPath) int {
	if p.TieBreak >= 0 {
		return p.TieBreak
	}
	w, wi, bit := int(r.w), int(p.ID)/64, uint64(1)<<(uint(p.ID)%64)
	if r.sets[wi]&bit != 0 {
		return p.NextHopID
	}
	lf := math.MaxInt
	for i, id := range r.pg.bgpID {
		if id < lf && r.sets[(1+i)*w+wi]&bit != 0 {
			lf = id
		}
	}
	return lf
}

// Source classes of a path at this router (sourceKind).
const (
	srcEBGP   int8 = iota // injected here
	srcServed             // learned from a served (client) peer
	srcOther              // learned from a non-client peer
)

// sourceKind classifies how this router learned path id, and for a route
// from a served peer the position of that peer (else -1). The served-by
// classification covers multi-level hierarchies, where a sub-cluster's
// reflector is a served member of the parent cluster.
func (r *RIB) sourceKind(id bgp.PathID) (kind int8, origin int) {
	w, wi, bit := int(r.w), int(id)/64, uint64(1)<<(uint(id)%64)
	if r.sets[wi]&bit != 0 {
		return srcEBGP, -1
	}
	// A path may be present in several Adj-RIB-Ins at once (a client and a
	// mesh peer both advertise it). Each copy is its own route instance and
	// the announcement rules apply per instance, so the effective
	// classification is the most permissive one: a served-peer copy licenses
	// reflection everywhere no matter how many mesh copies also exist.
	// Preferring the mesh copy instead is not just lossy, it livelocks: two
	// mesh reflectors that each hold a client copy reclassify the path as
	// mesh-learned the moment the other's reflection arrives, withdraw it
	// from the mesh, lose each other's copy, reclassify it client-learned,
	// and re-announce — a permanent oscillation that Lemma 7.4 forbids.
	for i, served := range r.pg.served {
		if served && r.sets[(1+i)*w+wi]&bit != 0 {
			return srcServed, i
		}
	}
	return srcOther, -1
}

// mayAnnounce implements the operational announcement rules of Section 2
// for one path toward peer w, generalized to multi-level hierarchies:
// E-BGP routes go to everyone; routes from a served peer go to everyone
// but the originator; routes from a non-client peer flow only downward to
// this router's own served members. A leaf client serves nobody, so the
// rules degenerate to "announce own routes only" — the plain I-BGP
// speaker behaviour.
func (r *RIB) mayAnnounce(id bgp.PathID, w bgp.NodeID) bool {
	i := r.pg.Index(w)
	if i < 0 {
		return false
	}
	kind, origin := r.sourceKind(id)
	return r.allowedTo(kind, origin, i)
}

// allowedTo applies the announcement rules toward the peer at position i
// given a precomputed source classification, letting PrepareFlush classify
// each path once instead of once per peer.
func (r *RIB) allowedTo(kind int8, origin, i int) bool {
	switch kind {
	case srcEBGP: // to everyone.
		return true
	case srcServed: // to everyone except the originator.
		return i != origin
	default: // from a non-client peer: downward only.
		return r.pg.served[i]
	}
}

// possibleInto fills out with Possible, reusing out's storage.
func (r *RIB) possibleInto(out *bgp.PathSet) {
	out.SetWords(r.words(myExits))
	for i := range r.pg.peers {
		out.Union(r.set(r.adjIn(i)))
	}
}

// materialise fills scr.cands with the routes of the paths in set, as seen
// from this router.
func (r *RIB) materialise(set bgp.PathSet) {
	scr := r.scr
	scr.ids = set.AppendIDs(scr.ids[:0])
	scr.cands = scr.cands[:0]
	if len(scr.ids) == 0 {
		return
	}
	if r.metric == nil {
		r.metric = make([]int32, r.sys.NumExits())
	}
	exits := r.sys.Exits()
	for _, id := range scr.ids {
		p := &exits[id]
		m := int64(r.metric[id]) - 1
		if m < 0 {
			if m = r.sys.Metric(r.id, *p); m < math.MaxInt32 {
				r.metric[id] = int32(m) + 1
			}
		}
		scr.cands = append(scr.cands, bgp.Route{Path: *p, At: r.id, Metric: m, LearnedFrom: r.learnedFrom(p)})
	}
}

// Upgraded reports whether this router has switched to survivor
// advertisement under the Adaptive policy.
func (r *RIB) Upgraded() bool { return r.upgraded }

// RecomputeBest re-runs the decision process and reports whether the best
// route moved (a "flap"). Rules 1-3 are one pass over the shared dominance
// table; only their survivors are materialised as routes for rules 4-6,
// which is exactly selection.BestInPlace over every candidate (see
// selection.BestOfSurvivors). Under the Adaptive policy it also feeds the
// oscillation detector.
func (r *RIB) RecomputeBest() (bestChanged bool) {
	oldBest := r.best
	scr := r.scr
	r.possibleInto(&scr.possible)
	r.dom.SurvivorsInto(&scr.surv, scr.possible)
	r.materialise(scr.surv)
	if w, ok := selection.BestOfSurvivors(scr.cands, r.opts.Order); ok {
		r.best = w.Path.ID
	} else {
		r.best = bgp.None
	}
	bestChanged = r.best != oldBest
	if bestChanged && r.best != bgp.None && r.policy == protocol.Adaptive {
		if r.heldBest.Contains(r.best) {
			r.flaps++ // a revisit: oscillation evidence
			if r.flaps >= protocol.AdaptiveThreshold {
				r.upgraded = true
			}
		}
		r.heldBest.Add(r.best)
	}
	return bestChanged
}

// Announced returns the set this router offers its peers before the
// per-peer announcement rules filter it: what PrepareFlush would prepare
// from the current candidates and best route. It leaves the decision state
// and the shared scratch untouched, running the prepare step on a private
// scratch, so a harness can read a settled router's advertisement.
func (r *RIB) Announced() bgp.PathSet {
	shared := r.scr
	defer func() { r.scr = shared }()
	r.scr = NewScratch(r.sys.NumExits())
	r.possibleInto(&r.scr.possible)
	r.dom.SurvivorsInto(&r.scr.surv, r.scr.possible)
	r.PrepareFlush()
	return bgp.NewPathSet(r.scr.want...)
}

// PrepareFlush computes the peer-independent half of the announcement
// fan-out — the advertise set and each wanted path's source classification
// — into the RIB's reusable scratch. It must run after RecomputeBest (it
// reuses that call's survivors and best route) with no intervening RIB
// mutation; the prepared state then feeds DiffInto for every peer of the
// round, so one refresh costs one decision process and zero allocations
// once the scratch is warm.
func (r *RIB) PrepareFlush() {
	scr := r.scr
	scr.want = scr.want[:0]
	switch {
	case r.policy == protocol.Modified || (r.policy == protocol.Adaptive && r.upgraded):
		scr.want = scr.surv.AppendIDs(scr.want)
	case r.policy == protocol.Walton && r.sys.Role(r.id) == topology.Reflector:
		// The per-AS winners are not a function of the survivors, so this
		// one branch still materialises every candidate.
		r.materialise(scr.possible)
		for _, w := range selection.WaltonSet(scr.cands, r.opts) {
			scr.want = append(scr.want, w.Path.ID)
		}
		slices.Sort(scr.want) // WaltonSet orders by neighbouring AS
	case r.best != bgp.None:
		scr.want = append(scr.want, r.best)
	}
	scr.kinds = scr.kinds[:0]
	scr.origins = scr.origins[:0]
	for _, id := range scr.want {
		k, o := r.sourceKind(id)
		scr.kinds = append(scr.kinds, k)
		scr.origins = append(scr.origins, int32(o))
	}
}

// targetInto fills the scratch target with the prepared paths the peer at
// position i should hold. It is its own function so the filter loop keeps
// its registers: inlined into DiffAt it measured 2-6 % slower per flush.
func (r *RIB) targetInto(i int) []uint64 {
	target := &r.scr.target
	target.Grow(int(r.w) * 64)
	target.Clear()
	for j, id := range r.scr.want {
		if r.allowedTo(r.scr.kinds[j], int(r.scr.origins[j]), i) {
			target.Add(id)
		}
	}
	return target.Words()
}

// appendBits appends the members of word wi's bits to dst.
func appendBits(dst []bgp.PathID, wi int, word uint64) []bgp.PathID {
	for ; word != 0; word &= word - 1 {
		dst = append(dst, bgp.PathID(wi*64+bits.TrailingZeros64(word)))
	}
	return dst
}

// DiffAt appends the owed announce/withdraw diff for the peer at position
// i — the prepared advertise set filtered by the announcement rules,
// against what was last advertised — to ann and wd without committing it:
// the advertisement memory is left untouched so the caller can decide per
// transport outcome whether to commit (ApplyDiffAt) or leave the diff
// owed. Valid only between a PrepareFlush and the next RIB mutation.
func (r *RIB) DiffAt(i int, ann, wd []bgp.PathID) ([]bgp.PathID, []bgp.PathID) {
	target := r.targetInto(i)
	for wi, last := range r.words(r.lastSent(i)) {
		if t := target[wi]; t != last {
			ann = appendBits(ann, wi, t&^last)
			wd = appendBits(wd, wi, last&^t)
		}
	}
	return ann, wd
}

// ApplyDiffAt commits a diff previously produced by DiffAt, once its
// UPDATE actually went out: lastSent' = lastSent + ann − wd, which is the
// target the diff was computed for (ann = target − lastSent, wd =
// lastSent − target). Skipping it after a failed send is the rollback:
// nothing was committed, so the diff simply stays owed and a later refresh
// re-sends it — the repair BGP gets from TCP retransmission.
func (r *RIB) ApplyDiffAt(i int, ann, wd []bgp.PathID) {
	k := r.lastSent(i)
	for _, id := range ann {
		word, bit := r.at(k, id)
		*word |= bit
	}
	for _, id := range wd {
		word, bit := r.at(k, id)
		*word &^= bit
	}
}

// LearnAt merges one path announced by the peer at position i into its
// Adj-RIB-In.
func (r *RIB) LearnAt(i int, id bgp.PathID) {
	word, bit := r.at(r.adjIn(i), id)
	*word |= bit
}

// UnlearnAt removes one path withdrawn by the peer at position i from its
// Adj-RIB-In.
func (r *RIB) UnlearnAt(i int, id bgp.PathID) {
	word, bit := r.at(r.adjIn(i), id)
	*word &^= bit
}

// The NodeID forms below resolve w on every call (package router resolves
// a peer once per UPDATE and uses the positional forms). A w that is not a
// configured peer is ignored.

// DiffInto is DiffAt for peer w.
func (r *RIB) DiffInto(w bgp.NodeID, ann, wd []bgp.PathID) ([]bgp.PathID, []bgp.PathID) {
	if i := r.pg.Index(w); i >= 0 {
		return r.DiffAt(i, ann, wd)
	}
	return ann, wd
}

// ApplyDiff is ApplyDiffAt for peer w.
func (r *RIB) ApplyDiff(w bgp.NodeID, ann, wd []bgp.PathID) {
	if i := r.pg.Index(w); i >= 0 {
		r.ApplyDiffAt(i, ann, wd)
	}
}

// Learn is LearnAt for peer w.
func (r *RIB) Learn(w bgp.NodeID, id bgp.PathID) {
	if i := r.pg.Index(w); i >= 0 {
		r.LearnAt(i, id)
	}
}

// Unlearn is UnlearnAt for peer w.
func (r *RIB) Unlearn(w bgp.NodeID, id bgp.PathID) {
	if i := r.pg.Index(w); i >= 0 {
		r.UnlearnAt(i, id)
	}
}
