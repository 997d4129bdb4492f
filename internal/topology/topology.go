// Package topology models the logical graph G_I of Section 4: the I-BGP
// peering sessions of AS0 organised into route-reflection clusters, layered
// over the physical graph G_P from package igp.
//
// A System bundles the physical graph, the cluster structure, the session
// set and the exit paths injected into the AS, and exposes the Transfer
// relation that governs which exit paths an I-BGP speaker may announce to
// which peer (the three cases of Section 4, "Modeling Communication").
package topology

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bgp"
	"repro/internal/igp"
)

// Role distinguishes route reflectors from their clients.
type Role int

const (
	// Reflector marks a route reflector; reflectors form a full I-BGP mesh
	// across clusters.
	Reflector Role = iota
	// Client marks a client router; clients peer only with the reflectors
	// of their own cluster (and optionally with same-cluster clients).
	Client
)

func (r Role) String() string {
	if r == Reflector {
		return "reflector"
	}
	return "client"
}

// System is an immutable description of one autonomous system: routers,
// physical links, cluster structure, I-BGP sessions and the exit paths for
// the single destination d. Build one with a Builder.
type System struct {
	names     []string
	roles     []Role
	cluster   []int // cluster index per node
	parent    []int // parent cluster per cluster; -1 for top level
	phys      *igp.Graph
	sessions  [][]bgp.NodeID // sorted peer lists
	sessionAt [][]bool
	servedBy  [][]bool // servedBy[c][r]: r reflects a cluster serving c
	below     [][]bool // below[r][x]: x is in r's service subtree (incl. r)
	exits     []bgp.ExitPath
	exitsAt   [][]bgp.PathID // exit paths per node
	bgpIDs    []int          // BGP identifier per node (for learnedFrom)
	ap        *igp.AllPairs
	clusters  [][]bgp.NodeID // members per cluster, sorted
}

// N returns the number of routers.
func (s *System) N() int { return len(s.roles) }

// Name returns the human-readable name of node u.
func (s *System) Name(u bgp.NodeID) string { return s.names[u] }

// NodeByName returns the node with the given name.
func (s *System) NodeByName(name string) (bgp.NodeID, bool) {
	for i, n := range s.names {
		if n == name {
			return bgp.NodeID(i), true
		}
	}
	return -1, false
}

// Role returns whether u is a reflector or a client.
func (s *System) Role(u bgp.NodeID) Role { return s.roles[u] }

// Cluster returns the cluster index of u.
func (s *System) Cluster(u bgp.NodeID) int { return s.cluster[u] }

// NumClusters returns the number of clusters.
func (s *System) NumClusters() int { return len(s.clusters) }

// ClusterMembers returns the members of cluster i in increasing node order.
func (s *System) ClusterMembers(i int) []bgp.NodeID { return s.clusters[i] }

// Phys returns the physical graph G_P.
func (s *System) Phys() *igp.Graph { return s.phys }

// Paths returns the cached all-pairs shortest paths over G_P.
func (s *System) Paths() *igp.AllPairs { return s.ap }

// BGPID returns the BGP identifier of node u, used as learnedFrom when u
// announces routes over I-BGP.
func (s *System) BGPID(u bgp.NodeID) int { return s.bgpIDs[u] }

// Peers returns u's I-BGP peers in increasing node order.
func (s *System) Peers(u bgp.NodeID) []bgp.NodeID { return s.sessions[u] }

// HasSession reports whether u and v maintain an I-BGP session.
func (s *System) HasSession(u, v bgp.NodeID) bool { return u != v && s.sessionAt[u][v] }

// Exits returns all exit paths, indexed by PathID.
func (s *System) Exits() []bgp.ExitPath { return s.exits }

// NumExits returns the number of exit paths.
func (s *System) NumExits() int { return len(s.exits) }

// Exit returns the exit path with the given id.
func (s *System) Exit(id bgp.PathID) bgp.ExitPath { return s.exits[id] }

// MyExits returns the PathIDs of the exit paths whose exit point is u, in
// increasing order. This is the MyExits(v) of Section 4.
func (s *System) MyExits(u bgp.NodeID) []bgp.PathID { return s.exitsAt[u] }

// MyExitSet returns MyExits(u) as a PathSet.
func (s *System) MyExitSet(u bgp.NodeID) bgp.PathSet {
	return bgp.NewPathSet(s.exitsAt[u]...)
}

// AllExitSet returns the set of every exit path in the system.
func (s *System) AllExitSet() bgp.PathSet {
	var ps bgp.PathSet
	for i := range s.exits {
		ps.Add(bgp.PathID(i))
	}
	return ps
}

// ServedBy reports whether r reflects a cluster that c belongs to as a
// served member — c is r's client in the generalized sense. In a
// multi-level hierarchy the reflectors of a sub-cluster are served members
// of the parent cluster.
func (s *System) ServedBy(c, r bgp.NodeID) bool { return s.servedBy[c][r] }

// BelowOrSelf reports whether x lies in r's service subtree: x == r, or x
// is served (transitively) by r.
func (s *System) BelowOrSelf(r, x bgp.NodeID) bool { return s.below[r][x] }

// ClusterParent returns the parent cluster of cluster k, or -1 at the top
// level.
func (s *System) ClusterParent(k int) int { return s.parent[k] }

// Transfers implements the Transfer relation of Section 4, generalized to
// multi-level reflection hierarchies: it reports whether the exit path p
// may appear in an announcement from router v to router u, assuming v
// currently advertises p. The cases are:
//
//  1. p is v's own E-BGP route (exitPoint(p) = v);
//  2. routes from v's subtree are reflected up (to v's own reflector) and
//     across (to mesh peers and co-reflectors whose subtree does not
//     already contain the exit — co-reflectors of the same cluster hear
//     the client directly, matching the paper's "different clusters"
//     condition);
//  3. u is v's client and p's exit point is not in u's own subtree —
//     everything flows down, except back along the branch it came from.
//
// For two-level systems this coincides exactly with the paper's relation.
func (s *System) Transfers(v, u bgp.NodeID, p bgp.ExitPath) bool {
	if v == u || !s.sessionAt[v][u] {
		return false
	}
	// Case 1: v learned p via E-BGP.
	if p.ExitPoint == v {
		return true
	}
	if s.servedBy[u][v] {
		// Case 3: down to a client; never echo into the originating branch.
		return !s.below[u][p.ExitPoint]
	}
	if !s.below[v][p.ExitPoint] || p.ExitPoint == v {
		return false // only subtree routes flow up or across
	}
	if s.servedBy[v][u] {
		return true // up to v's own reflector
	}
	// Across: mesh peers and co-reflectors, unless they already serve the
	// exit themselves.
	return !s.below[u][p.ExitPoint]
}

// level returns level_p(u) from Section 7: the announcement distance of u
// from p's exit point in the reflection hierarchy (0 at the exit point, up
// to 3 at clients of other clusters).
func (s *System) level(p bgp.ExitPath, u bgp.NodeID) int {
	v := p.ExitPoint
	if u == v {
		return 0
	}
	ci := s.cluster[v]
	switch {
	case s.roles[u] == Reflector && s.cluster[u] == ci:
		return 1
	case s.roles[u] == Client && s.cluster[u] == ci:
		return 2
	case s.roles[u] == Reflector:
		return 2
	default:
		return 3
	}
}

// Metric returns metric(route(p, u)) = cost(SP(u, exitPoint(p))) plus the
// exit cost, or igp.Infinity when the exit point is unreachable. G_P is
// undirected, so the cost is read from the tree rooted at the exit point:
// a system needs one tree per exit point, not one per router.
func (s *System) Metric(u bgp.NodeID, p bgp.ExitPath) int64 {
	d := s.ap.From(p.ExitPoint).Dist[u]
	if d == igp.Infinity {
		return igp.Infinity
	}
	return d + p.ExitCost
}

// Route materialises route(p, u) with the given learnedFrom value.
func (s *System) Route(u bgp.NodeID, p bgp.ExitPath, learnedFrom int) bgp.Route {
	return bgp.Route{Path: p, At: u, Metric: s.Metric(u, p), LearnedFrom: learnedFrom}
}

// Builder assembles a System incrementally. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	names      []string
	roles      []Role
	cluster    []int
	parents    []int
	numCluster int
	links      []link
	extraSess  []pair
	exits      []bgp.ExitPath
	bgpIDs     []int
	err        error
}

type link struct {
	u, v bgp.NodeID
	w    int64
}

type pair struct{ u, v bgp.NodeID }

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// NewCluster starts a new (initially empty) top-level cluster and returns
// its index. Top-level reflectors form the full I-BGP mesh.
func (b *Builder) NewCluster() int {
	b.numCluster++
	b.parents = append(b.parents, -1)
	return b.numCluster - 1
}

// SubCluster starts a new cluster nested under parent, building a
// multi-level reflection hierarchy (the deeper hierarchies Section 2
// mentions beyond the paper's two-level analysis). The sub-cluster's
// reflectors automatically become served clients of the parent cluster's
// reflectors.
func (b *Builder) SubCluster(parent int) int {
	if b.err == nil && (parent < 0 || parent >= b.numCluster) {
		b.err = fmt.Errorf("topology: SubCluster references unknown cluster %d", parent)
	}
	b.numCluster++
	b.parents = append(b.parents, parent)
	return b.numCluster - 1
}

func (b *Builder) addNode(name string, role Role, cluster int) bgp.NodeID {
	if b.err != nil {
		return -1
	}
	if cluster < 0 || cluster >= b.numCluster {
		b.err = fmt.Errorf("topology: node %q references unknown cluster %d", name, cluster)
		return -1
	}
	if name == "" {
		name = fmt.Sprintf("v%d", len(b.names))
	}
	for _, n := range b.names {
		if n == name {
			b.err = fmt.Errorf("topology: duplicate node name %q", name)
			return -1
		}
	}
	id := bgp.NodeID(len(b.names))
	b.names = append(b.names, name)
	b.roles = append(b.roles, role)
	b.cluster = append(b.cluster, cluster)
	b.bgpIDs = append(b.bgpIDs, 1000+int(id))
	return id
}

// Reflector adds a route reflector named name to the given cluster.
func (b *Builder) Reflector(name string, cluster int) bgp.NodeID {
	return b.addNode(name, Reflector, cluster)
}

// Client adds a client router named name to the given cluster.
func (b *Builder) Client(name string, cluster int) bgp.NodeID {
	return b.addNode(name, Client, cluster)
}

// SetBGPID overrides the BGP identifier of node u (default 1000+u).
func (b *Builder) SetBGPID(u bgp.NodeID, id int) *Builder {
	if b.err == nil {
		if int(u) < 0 || int(u) >= len(b.bgpIDs) {
			b.err = fmt.Errorf("topology: SetBGPID: unknown node %d", u)
			return b
		}
		b.bgpIDs[u] = id
	}
	return b
}

// Link adds a physical (IGP) link of cost w between u and v.
func (b *Builder) Link(u, v bgp.NodeID, w int64) *Builder {
	if b.err == nil {
		b.links = append(b.links, link{u, v, w})
	}
	return b
}

// ClientSession adds an optional I-BGP session between two clients of the
// same cluster (permitted by the model's constraint 4).
func (b *Builder) ClientSession(u, v bgp.NodeID) *Builder {
	if b.err == nil {
		b.extraSess = append(b.extraSess, pair{u, v})
	}
	return b
}

// ExitSpec describes an exit path to inject at a router.
type ExitSpec struct {
	LocalPref int
	ASPathLen int
	NextAS    bgp.ASN
	MED       int
	ExitCost  int64
	NextHopID int
	TieBreak  int // < 0 for "use announcing peer's BGP id"
}

// Exit injects an exit path at router u and returns its PathID.
func (b *Builder) Exit(u bgp.NodeID, spec ExitSpec) bgp.PathID {
	if b.err != nil {
		return bgp.None
	}
	if int(u) < 0 || int(u) >= len(b.names) {
		b.err = fmt.Errorf("topology: Exit: unknown node %d", u)
		return bgp.None
	}
	id := bgp.PathID(len(b.exits))
	nh := spec.NextHopID
	if nh == 0 {
		nh = 2000 + int(id)
	}
	tb := spec.TieBreak
	if tb == 0 {
		tb = -1
	}
	if spec.ASPathLen <= 0 {
		spec.ASPathLen = 1
	}
	b.exits = append(b.exits, bgp.ExitPath{
		ID:        id,
		LocalPref: spec.LocalPref,
		ASPathLen: spec.ASPathLen,
		NextAS:    spec.NextAS,
		MED:       spec.MED,
		ExitPoint: u,
		ExitCost:  spec.ExitCost,
		NextHopID: nh,
		TieBreak:  tb,
	})
	return id
}

// Build validates the configuration and returns the immutable System.
//
// Validation enforces the structural constraints of Section 4: every
// cluster has at least one reflector, the physical graph is connected, and
// the session set is exactly the one induced by the cluster structure (full
// reflector mesh, client-reflector within clusters, plus any declared
// same-cluster client-client sessions).
func (b *Builder) Build() (*System, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.names)
	if n == 0 {
		return nil, errors.New("topology: no routers")
	}
	// Cluster membership and reflector presence.
	clusters := make([][]bgp.NodeID, b.numCluster)
	hasRR := make([]bool, b.numCluster)
	for i := 0; i < n; i++ {
		c := b.cluster[i]
		clusters[c] = append(clusters[c], bgp.NodeID(i))
		if b.roles[i] == Reflector {
			hasRR[c] = true
		}
	}
	for c := 0; c < b.numCluster; c++ {
		if len(clusters[c]) == 0 {
			return nil, fmt.Errorf("topology: cluster %d is empty", c)
		}
		if !hasRR[c] {
			return nil, fmt.Errorf("topology: cluster %d has no route reflector", c)
		}
	}
	// BGP identifiers must be unique (they are selection tie-breakers).
	seenID := make(map[int]bgp.NodeID)
	for i, id := range b.bgpIDs {
		if prev, dup := seenID[id]; dup {
			return nil, fmt.Errorf("topology: nodes %q and %q share BGP id %d", b.names[prev], b.names[i], id)
		}
		seenID[id] = bgp.NodeID(i)
	}
	// Physical graph.
	phys := igp.New(n)
	for _, l := range b.links {
		if err := phys.AddEdge(l.u, l.v, l.w); err != nil {
			return nil, err
		}
	}
	if !phys.Connected() {
		return nil, errors.New("topology: physical graph is not connected")
	}
	// Served-member sets: each cluster serves its clients plus the
	// reflectors of its sub-clusters.
	servedOf := make([][]bgp.NodeID, b.numCluster) // served members per cluster
	for i := 0; i < n; i++ {
		if b.roles[i] == Client {
			servedOf[b.cluster[i]] = append(servedOf[b.cluster[i]], bgp.NodeID(i))
		} else if p := b.parents[b.cluster[i]]; p >= 0 {
			servedOf[p] = append(servedOf[p], bgp.NodeID(i))
		}
	}
	reflectorsOf := make([][]bgp.NodeID, b.numCluster)
	for i := 0; i < n; i++ {
		if b.roles[i] == Reflector {
			reflectorsOf[b.cluster[i]] = append(reflectorsOf[b.cluster[i]], bgp.NodeID(i))
		}
	}

	// Sessions: full mesh among top-level reflectors, plus
	// reflector-to-served-member within each cluster.
	sessionAt := make([][]bool, n)
	servedBy := make([][]bool, n)
	for i := range sessionAt {
		sessionAt[i] = make([]bool, n)
		servedBy[i] = make([]bool, n)
	}
	addSess := func(u, v bgp.NodeID) {
		sessionAt[u][v] = true
		sessionAt[v][u] = true
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			uID, vID := bgp.NodeID(u), bgp.NodeID(v)
			if b.roles[u] == Reflector && b.roles[v] == Reflector &&
				b.parents[b.cluster[u]] < 0 && b.parents[b.cluster[v]] < 0 {
				addSess(uID, vID)
			}
		}
	}
	for k := 0; k < b.numCluster; k++ {
		for _, r := range reflectorsOf[k] {
			for _, c := range servedOf[k] {
				addSess(r, c)
				servedBy[c][r] = true
			}
		}
	}

	// Service-subtree closure: below[r] = {r} ∪ ⋃ below[c] over the
	// members r serves. Clusters form a forest and parents always precede
	// children (SubCluster only accepts existing cluster indices), so a
	// single pass over reflectors in descending cluster order sees every
	// served member's subtree already complete: served members are either
	// same-cluster clients (whose subtree is themselves) or reflectors of
	// a strictly higher-numbered cluster. This replaces the previous
	// O(n³)-per-sweep fixpoint, which dominated Build at ISP scale.
	below := make([][]bool, n)
	for i := range below {
		below[i] = make([]bool, n)
		below[i][i] = true
	}
	servers := make([]bgp.NodeID, 0, n)
	for r := 0; r < n; r++ {
		servers = append(servers, bgp.NodeID(r))
	}
	sort.SliceStable(servers, func(i, j int) bool {
		return b.cluster[servers[i]] > b.cluster[servers[j]]
	})
	for _, r := range servers {
		for c := 0; c < n; c++ {
			if !servedBy[c][r] {
				continue
			}
			br, bc := below[r], below[c]
			for x := 0; x < n; x++ {
				if bc[x] {
					br[x] = true
				}
			}
		}
	}
	for _, p := range b.extraSess {
		if int(p.u) < 0 || int(p.u) >= n || int(p.v) < 0 || int(p.v) >= n || p.u == p.v {
			return nil, fmt.Errorf("topology: invalid client session %d-%d", p.u, p.v)
		}
		if b.roles[p.u] != Client || b.roles[p.v] != Client || b.cluster[p.u] != b.cluster[p.v] {
			return nil, fmt.Errorf("topology: client session %q-%q must join two clients of one cluster",
				b.names[p.u], b.names[p.v])
		}
		addSess(p.u, p.v)
	}
	sessions := make([][]bgp.NodeID, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if sessionAt[u][v] {
				sessions[u] = append(sessions[u], bgp.NodeID(v))
			}
		}
		sort.Slice(sessions[u], func(i, j int) bool { return sessions[u][i] < sessions[u][j] })
	}
	// Exit paths per node.
	exitsAt := make([][]bgp.PathID, n)
	for _, p := range b.exits {
		if p.LocalPref < 0 || p.MED < 0 || p.ExitCost < 0 {
			return nil, fmt.Errorf("topology: exit path %d has negative attribute", p.ID)
		}
		exitsAt[p.ExitPoint] = append(exitsAt[p.ExitPoint], p.ID)
	}
	sys := &System{
		names:     append([]string(nil), b.names...),
		roles:     append([]Role(nil), b.roles...),
		cluster:   append([]int(nil), b.cluster...),
		parent:    append([]int(nil), b.parents...),
		phys:      phys,
		sessions:  sessions,
		sessionAt: sessionAt,
		servedBy:  servedBy,
		below:     below,
		exits:     append([]bgp.ExitPath(nil), b.exits...),
		exitsAt:   exitsAt,
		bgpIDs:    append([]int(nil), b.bgpIDs...),
		ap:        igp.NewAllPairs(phys),
		clusters:  clusters,
	}
	return sys, nil
}

// PrefixExit pairs an exit point with its attributes, for WithExits. It is
// ExitSpec plus the node the path is injected at (Builder.Exit's receiver
// argument, made explicit so overlay exit sets can be described as data).
type PrefixExit struct {
	At   bgp.NodeID
	Spec ExitSpec
}

// WithExits returns an overlay System: the same routers, sessions, cluster
// structure, physical graph and shortest paths as s — shared by reference,
// not copied — carrying a different exit-path set. This is how a
// multi-prefix domain represents P prefixes over one session graph without
// duplicating the O(n²) topological tables P times.
//
// Specs are normalized exactly like Builder.Exit (PathID = index, zero
// NextHopID defaults to 2000+id, zero TieBreak means "announcing peer's
// BGP id", non-positive ASPathLen becomes 1) and validated like Build
// (negative LocalPref/MED/ExitCost rejected).
func (s *System) WithExits(exits []PrefixExit) (*System, error) {
	n := s.N()
	out := *s // shallow copy: every topological table stays shared
	out.exits = make([]bgp.ExitPath, 0, len(exits))
	out.exitsAt = make([][]bgp.PathID, n)
	for i, e := range exits {
		if int(e.At) < 0 || int(e.At) >= n {
			return nil, fmt.Errorf("topology: WithExits: exit %d at unknown node %d", i, e.At)
		}
		if e.Spec.LocalPref < 0 || e.Spec.MED < 0 || e.Spec.ExitCost < 0 {
			return nil, fmt.Errorf("topology: exit path %d has negative attribute", i)
		}
		id := bgp.PathID(i)
		nh := e.Spec.NextHopID
		if nh == 0 {
			nh = 2000 + int(id)
		}
		tb := e.Spec.TieBreak
		if tb == 0 {
			tb = -1
		}
		al := e.Spec.ASPathLen
		if al <= 0 {
			al = 1
		}
		out.exits = append(out.exits, bgp.ExitPath{
			ID:        id,
			LocalPref: e.Spec.LocalPref,
			ASPathLen: al,
			NextAS:    e.Spec.NextAS,
			MED:       e.Spec.MED,
			ExitPoint: e.At,
			ExitCost:  e.Spec.ExitCost,
			NextHopID: nh,
			TieBreak:  tb,
		})
		out.exitsAt[e.At] = append(out.exitsAt[e.At], id)
	}
	return &out, nil
}

// SharesGraph reports whether o rides on the same underlying session graph
// as s: the same System, or a WithExits overlay of it (directly or through
// a common ancestor). The test is identity of the shared tables, so it is
// O(1) — independently-built but structurally equal systems report false
// and must be compared field by field.
func (s *System) SharesGraph(o *System) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.names) == 0 || len(o.names) == 0 {
		return false
	}
	return &s.names[0] == &o.names[0] && len(s.names) == len(o.names)
}

// FullMesh is a convenience constructor for fully-meshed I-BGP: n routers,
// each its own single-reflector cluster (the paper's note that full mesh is
// the special case of route reflection with client-less clusters).
func FullMesh(names ...string) (*Builder, []bgp.NodeID) {
	b := NewBuilder()
	ids := make([]bgp.NodeID, len(names))
	for i, name := range names {
		c := b.NewCluster()
		ids[i] = b.Reflector(name, c)
	}
	return b, ids
}
