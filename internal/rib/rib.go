// Package rib implements the operational per-router state of an I-BGP
// speaker: the per-peer Adj-RIB-In, the locally injected E-BGP routes, the
// best-route decision process and the route-reflection announcement rules
// of Section 2. It is shared by the discrete-event simulator (package
// msgsim) and the TCP speakers (package speaker) so that both substrates
// run exactly the same protocol logic.
package rib

import (
	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// Peering is the immutable peer table of one router: the sorted I-BGP peer
// list plus a dense NodeID→position index. The table depends only on the
// session graph, which every prefix of a multi-prefix domain shares, so
// one Peering serves all P of a router's RIBs instead of P copies of the
// same map pair — the dominant per-RIB memory term at R routers × P
// prefixes.
type Peering struct {
	peers []bgp.NodeID
	idx   []int32 // NodeID → position in peers; -1 when not a peer
}

// NewPeering builds the peer table of router id over sys's session graph.
func NewPeering(sys *topology.System, id bgp.NodeID) *Peering {
	pg := &Peering{peers: sys.Peers(id), idx: make([]int32, sys.N())}
	for i := range pg.idx {
		pg.idx[i] = -1
	}
	for i, w := range pg.peers {
		pg.idx[w] = int32(i)
	}
	return pg
}

// Peers returns the peer list in increasing node order. Callers must not
// mutate it.
func (p *Peering) Peers() []bgp.NodeID { return p.peers }

// Index returns w's position in Peers, or -1 when w is not a peer.
func (p *Peering) Index(w bgp.NodeID) int {
	if int(w) < 0 || int(w) >= len(p.idx) {
		return -1
	}
	return int(p.idx[w])
}

// RIB is the state of one I-BGP speaker for one prefix. It is not safe for
// concurrent use; callers serialise access (msgsim is single-threaded,
// speaker routers own their RIBs from a single goroutine, and the parallel
// refresh in package router hands each RIB to exactly one worker per
// round).
type RIB struct {
	sys    *topology.System
	policy protocol.Policy
	opts   selection.Options
	id     bgp.NodeID

	// pg is the fixed I-BGP peer table. The adjIn/lastSent index space
	// never changes after New (sessions are configured, not discovered), so
	// iterating pg.peers replaces every per-call map walk and sort on the
	// decision-process hot path.
	pg *Peering

	myExits  bgp.PathSet
	adjIn    []bgp.PathSet // indexed by peer position (pg.Index)
	lastSent []bgp.PathSet // indexed by peer position (pg.Index)
	best     bgp.PathID

	// Adaptive-policy state (protocol.Adaptive): revisit count, the set of
	// best routes held before, and whether this router has switched to
	// survivor advertisement.
	flaps    int
	heldBest bgp.PathSet
	upgraded bool

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
// prepared-flush state (adv/want/kinds/origins, and target/tids/lids while
// diffing) is only valid between one RIB's PrepareFlush and the next RIB
// touching the Scratch, which is why sharing is per-worker, never
// per-round.
type Scratch struct {
	possible bgp.PathSet     // candidate path IDs
	ids      []bgp.PathID    // possible, flattened
	cands    []bgp.Route     // materialised candidate routes (stable)
	sel      []bgp.Route     // consumed by BestInPlace (reordered/truncated)
	paths    []bgp.ExitPath  // consumed by SurvivorsBInPlace
	byAS     map[bgp.ASN]int // MED minima scratch for SurvivorsBInPlace

	adv     bgp.PathSet  // advertise set (PrepareFlush)
	want    []bgp.PathID // adv, flattened
	kinds   []int        // sourceKind per want entry
	origins []bgp.NodeID // origin per want entry

	target bgp.PathSet  // per-peer target (DiffInto)
	tids   []bgp.PathID // target, flattened (diffing)
	lids   []bgp.PathID // lastSent, flattened (diffing)
}

// NewScratch pre-sizes a decision-process scratch for systems of up to n
// exit paths (every working set is at most the exit-path count), so
// short-lived routers — a soak round's fresh sim, a census shard — don't
// pay append-growth allocations on their first refreshes before the
// scratch warms. The same-typed slices share one backing array each,
// sliced with full cap so appends can never cross into a neighbour; a
// larger system degrades to append growth, never to corruption.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	pid := make([]bgp.PathID, 4*n)
	s.ids = pid[0*n : 0*n : 1*n]
	s.want = pid[1*n : 1*n : 2*n]
	s.tids = pid[2*n : 2*n : 3*n]
	s.lids = pid[3*n : 3*n : 4*n]
	rts := make([]bgp.Route, 2*n)
	s.cands = rts[0:0:n]
	s.sel = rts[n : n : 2*n]
	s.paths = make([]bgp.ExitPath, 0, n)
	s.kinds = make([]int, 0, n)
	s.origins = make([]bgp.NodeID, 0, n)
	s.possible.Grow(n)
	s.adv.Grow(n)
	s.target.Grow(n)
	return s
}

// New returns an empty RIB for router id with its own peer table and
// scratch.
func New(sys *topology.System, policy protocol.Policy, opts selection.Options, id bgp.NodeID) *RIB {
	return NewShared(sys, policy, opts, id, nil, nil)
}

// NewShared returns an empty RIB for router id reusing a shared peer table
// and scratch. Either may be nil, in which case the RIB builds its own.
// The peer table must have been built for the same router over the same
// session graph; the scratch must be sized for at least this system's exit
// count to stay allocation-free (a smaller one still computes correctly).
func NewShared(sys *topology.System, policy protocol.Policy, opts selection.Options, id bgp.NodeID, pg *Peering, scr *Scratch) *RIB {
	if pg == nil {
		pg = NewPeering(sys, id)
	}
	if scr == nil {
		scr = NewScratch(sys.NumExits())
	}
	r := &RIB{
		sys:    sys,
		policy: policy,
		opts:   opts,
		id:     id,
		pg:     pg,
		scr:    scr,
		best:   bgp.None,
	}
	n := sys.NumExits()
	np := len(pg.peers)
	r.adjIn = make([]bgp.PathSet, np)
	r.lastSent = make([]bgp.PathSet, np)
	for i := range r.adjIn {
		r.adjIn[i].Grow(n)
		r.lastSent[i].Grow(n)
	}
	r.myExits.Grow(n)
	return r
}

// SetScratch points the RIB at a different scratch. The parallel refresh
// uses this to hand each worker's scratch to the RIBs of its shard; any
// prepared-flush state in the previous scratch is abandoned.
func (r *RIB) SetScratch(s *Scratch) { r.scr = s }

// ID returns the router this RIB belongs to.
func (r *RIB) ID() bgp.NodeID { return r.id }

// Best returns the current best path, or bgp.None.
func (r *RIB) Best() bgp.PathID { return r.best }

// BestRoute materialises the current best route.
func (r *RIB) BestRoute() (bgp.Route, bool) {
	if r.best == bgp.None {
		return bgp.Route{}, false
	}
	p := r.sys.Exit(r.best)
	return r.sys.Route(r.id, p, r.learnedFrom(p)), true
}

// Possible returns the current candidate set: own exits plus everything in
// the Adj-RIB-Ins.
func (r *RIB) Possible() bgp.PathSet {
	var out bgp.PathSet
	r.possibleInto(&out)
	return out
}

// MyExits returns the current locally injected exit set.
func (r *RIB) MyExits() bgp.PathSet { return r.myExits.Clone() }

// AdjIn returns the paths peer w currently advertises to this router.
func (r *RIB) AdjIn(w bgp.NodeID) bgp.PathSet {
	if i := r.pg.Index(w); i >= 0 {
		return r.adjIn[i].Clone()
	}
	return bgp.PathSet{}
}

// Inject records an E-BGP injection of path id at this router.
func (r *RIB) Inject(id bgp.PathID) { r.myExits.Add(id) }

// WithdrawExternal records an E-BGP withdrawal of path id.
func (r *RIB) WithdrawExternal(id bgp.PathID) { r.myExits.Remove(id) }

// PeerDown implements the RFC 4271 §8.2 session-loss semantics for peer w:
// every route learned from w is deleted from its Adj-RIB-In, and the
// advertisement memory toward w is forgotten — after the session
// re-establishes, the whole current target set must be re-advertised
// because the peer rebuilt its own state from scratch. It returns the
// number of routes flushed. Callers re-run the decision process next
// (RecomputeBest); until then Possible may still surface the dead
// routes of other peers, never w's.
func (r *RIB) PeerDown(w bgp.NodeID) (flushed int) {
	i := r.pg.Index(w)
	if i < 0 {
		return 0
	}
	flushed = r.adjIn[i].Len()
	r.adjIn[i].Clear()
	r.lastSent[i].Clear()
	return flushed
}

// learnedFrom computes the selection tie-break attribution of path p.
func (r *RIB) learnedFrom(p bgp.ExitPath) int {
	if p.TieBreak >= 0 {
		return p.TieBreak
	}
	if r.myExits.Contains(p.ID) {
		return p.NextHopID
	}
	lf := int(^uint(0) >> 1)
	for i, w := range r.pg.peers {
		if r.adjIn[i].Contains(p.ID) {
			if id := r.sys.BGPID(w); id < lf {
				lf = id
			}
		}
	}
	return lf
}

// sourceKind classifies how this router learned path id: 0 = E-BGP, 1 =
// from a served (client) peer, 2 = from a non-client peer. origin is the
// announcing peer for kinds 1 and 2. The served-by classification covers
// multi-level hierarchies, where a sub-cluster's reflector is a served
// member of the parent cluster.
func (r *RIB) sourceKind(id bgp.PathID) (kind int, origin bgp.NodeID) {
	if r.myExits.Contains(id) {
		return 0, r.id
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
	found := bgp.NodeID(-1)
	for i, w := range r.pg.peers {
		if !r.adjIn[i].Contains(id) {
			continue
		}
		if r.sys.ServedBy(w, r.id) {
			return 1, w
		}
		if found < 0 {
			found = w
		}
	}
	return 2, found
}

// MayAnnounce implements the operational announcement rules of Section 2
// for one path toward peer w, generalized to multi-level hierarchies:
// E-BGP routes go to everyone; routes from a served peer go to everyone
// but the originator; routes from a non-client peer flow only downward to
// this router's own served members. A leaf client serves nobody, so the
// rules degenerate to "announce own routes only" — the plain I-BGP
// speaker behaviour.
func (r *RIB) MayAnnounce(id bgp.PathID, w bgp.NodeID) bool {
	kind, origin := r.sourceKind(id)
	return r.allowedTo(kind, origin, w)
}

// allowedTo applies the announcement rules given a precomputed source
// classification, letting PrepareFlush classify each path once instead of
// once per peer.
func (r *RIB) allowedTo(kind int, origin, w bgp.NodeID) bool {
	switch kind {
	case 0: // E-BGP: to everyone.
		return true
	case 1: // From a served peer: to everyone except the originator.
		return w != origin
	default: // From a non-client peer: downward only.
		return r.sys.ServedBy(w, r.id)
	}
}

// possibleInto fills out with Possible, reusing out's storage.
func (r *RIB) possibleInto(out *bgp.PathSet) {
	out.Copy(r.myExits)
	for i := range r.adjIn {
		out.Union(r.adjIn[i])
	}
}

// fillCandidates materialises the current candidate routes into the
// refresh scratch (scr.cands), reusing its storage.
func (r *RIB) fillCandidates() {
	r.possibleInto(&r.scr.possible)
	r.scr.ids = r.scr.possible.AppendIDs(r.scr.ids[:0])
	r.scr.cands = r.scr.cands[:0]
	for _, id := range r.scr.ids {
		p := r.sys.Exit(id)
		r.scr.cands = append(r.scr.cands, r.sys.Route(r.id, p, r.learnedFrom(p)))
	}
}

// advertiseInto computes the paths this router wants to offer under its
// policy — before per-peer announcement filtering — into out, consuming
// the candidate scratch. fillCandidates must have run for the current RIB
// state; scr.cands itself is left intact (the policy branches work on the
// sel/paths copies), so advertiseInto may run after RecomputeBest without
// re-materialising.
func (r *RIB) advertiseInto(out *bgp.PathSet) {
	out.Clear()
	switch {
	case r.policy == protocol.Modified || (r.policy == protocol.Adaptive && r.upgraded):
		paths := r.scr.paths[:0]
		for _, c := range r.scr.cands {
			paths = append(paths, c.Path)
		}
		r.scr.paths = paths
		if r.scr.byAS == nil {
			r.scr.byAS = make(map[bgp.ASN]int, 8)
		}
		for _, p := range selection.SurvivorsBInPlace(paths, r.opts.MED, r.scr.byAS) {
			out.Add(p.ID)
		}
	case r.policy == protocol.Walton && r.sys.Role(r.id) == topology.Reflector:
		for _, w := range selection.WaltonSet(r.scr.cands, r.opts) {
			out.Add(w.Path.ID)
		}
	default:
		sel := append(r.scr.sel[:0], r.scr.cands...)
		if w, ok := selection.BestInPlace(sel, r.opts); ok {
			out.Add(w.Path.ID)
		}
		r.scr.sel = sel
	}
}

// Upgraded reports whether this router has switched to survivor
// advertisement under the Adaptive policy.
func (r *RIB) Upgraded() bool { return r.upgraded }

// RecomputeBest re-runs the decision process and reports whether the best
// route moved (a "flap"). It also feeds the adaptive oscillation detector.
func (r *RIB) RecomputeBest() (bestChanged bool) {
	oldBest := r.best
	r.fillCandidates()
	sel := append(r.scr.sel[:0], r.scr.cands...)
	if w, ok := selection.BestInPlace(sel, r.opts); ok {
		r.best = w.Path.ID
	} else {
		r.best = bgp.None
	}
	r.scr.sel = sel
	bestChanged = r.best != oldBest
	if bestChanged && r.best != bgp.None {
		if r.heldBest.Contains(r.best) {
			r.flaps++ // a revisit: oscillation evidence
			if r.policy == protocol.Adaptive && r.flaps >= protocol.AdaptiveThreshold {
				r.upgraded = true
			}
		}
		r.heldBest.Add(r.best)
	}
	return bestChanged
}

// PrepareFlush computes the peer-independent half of the announcement
// fan-out — the advertise set and each wanted path's source classification
// — into the RIB's reusable scratch. It must run after RecomputeBest (it
// reuses the candidate materialisation) with no intervening RIB mutation;
// the prepared state then feeds DiffInto for every peer of the round, so
// one refresh costs one decision process and zero allocations once the
// scratch is warm.
func (r *RIB) PrepareFlush() {
	r.advertiseInto(&r.scr.adv)
	r.scr.want = r.scr.adv.AppendIDs(r.scr.want[:0])
	r.scr.kinds = r.scr.kinds[:0]
	r.scr.origins = r.scr.origins[:0]
	for _, id := range r.scr.want {
		k, o := r.sourceKind(id)
		r.scr.kinds = append(r.scr.kinds, k)
		r.scr.origins = append(r.scr.origins, o)
	}
}

// targetInto fills the scratch target with the prepared paths peer w
// should hold. It is its own function so the filter loop keeps its
// registers: inlined into DiffInto it measured 2-6 % slower per flush.
func (r *RIB) targetInto(w bgp.NodeID) *bgp.PathSet {
	target := &r.scr.target
	target.Clear()
	for i, id := range r.scr.want {
		if r.allowedTo(r.scr.kinds[i], r.scr.origins[i], w) {
			target.Add(id)
		}
	}
	return target
}

// DiffInto appends the owed announce/withdraw diff for peer w — the
// prepared advertise set filtered by the announcement rules, against what
// was last advertised — to ann and wd without committing it: the
// advertisement memory is left untouched so the caller can decide per
// transport outcome whether to commit (ApplyDiff) or leave the diff owed.
// Valid only between a PrepareFlush and the next RIB mutation.
func (r *RIB) DiffInto(w bgp.NodeID, ann, wd []bgp.PathID) ([]bgp.PathID, []bgp.PathID) {
	i := r.pg.Index(w)
	if i < 0 {
		return ann, wd
	}
	last := &r.lastSent[i]
	target := r.targetInto(w)
	if target.Equal(*last) {
		return ann, wd
	}
	r.scr.tids = target.AppendIDs(r.scr.tids[:0])
	for _, id := range r.scr.tids {
		if !last.Contains(id) {
			ann = append(ann, id)
		}
	}
	r.scr.lids = last.AppendIDs(r.scr.lids[:0])
	for _, id := range r.scr.lids {
		if !target.Contains(id) {
			wd = append(wd, id)
		}
	}
	return ann, wd
}

// ApplyDiff commits a diff previously produced by DiffInto, once its
// UPDATE actually went out: lastSent' = lastSent + ann − wd, which is the
// target the diff was computed for (ann = target − lastSent, wd =
// lastSent − target). Skipping ApplyDiff after a failed send is the
// rollback: nothing was committed, so the diff simply stays owed and a
// later refresh re-sends it — the repair BGP gets from TCP retransmission.
func (r *RIB) ApplyDiff(w bgp.NodeID, ann, wd []bgp.PathID) {
	i := r.pg.Index(w)
	if i < 0 {
		return
	}
	last := &r.lastSent[i]
	for _, id := range ann {
		last.Add(id)
	}
	for _, id := range wd {
		last.Remove(id)
	}
}

// Learn merges one path announced by peer w into its Adj-RIB-In. A w that
// is not a configured peer is ignored.
func (r *RIB) Learn(w bgp.NodeID, id bgp.PathID) {
	if i := r.pg.Index(w); i >= 0 {
		r.adjIn[i].Add(id)
	}
}

// Unlearn removes one path withdrawn by peer w from its Adj-RIB-In.
func (r *RIB) Unlearn(w bgp.NodeID, id bgp.PathID) {
	if i := r.pg.Index(w); i >= 0 {
		r.adjIn[i].Remove(id)
	}
}
