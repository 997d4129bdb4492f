package topology

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bgp"
	"repro/internal/igp"
)

// Rule names a family of the structural rules Section 4 places on a
// configuration. Every Problem belongs to one; the static analyzer (package
// lint) reports each family as one pass.
type Rule int

const (
	// ClusterRule: routers exist; every cluster has members and a route
	// reflector; every router has one role in one cluster; every cluster
	// parent is an earlier cluster; every client session joins two clients
	// of one cluster.
	ClusterRule Rule = iota
	// ReferenceRule: links, client sessions, exits and BGP id overrides
	// name declared routers; no link joins a router to itself; no two
	// routers share a BGP id.
	ReferenceRule
	// AttributeRule: link costs are positive; MED, LOCAL-PREF and exit
	// costs are non-negative.
	AttributeRule
	// ConnectivityRule: the physical graph G_P is connected.
	ConnectivityRule
)

// Problem is one violation of a structural rule.
type Problem struct {
	// Rule is the rule family the problem violates.
	Rule Rule
	// Nodes names the routers the problem is anchored at, if any.
	Nodes []string
	// Detail explains the problem.
	Detail string
}

// Problems lists every structural problem of one configuration, ordered by
// Rule. It is the error Build, BuildSpec, BuildSpecAll, Load and WithExits
// return, and prints its first problem.
type Problems []Problem

func (ps Problems) Error() string { return "topology: " + ps[0].Detail }

func (ps *Problems) add(rule Rule, nodes []string, format string, args ...any) {
	*ps = append(*ps, Problem{Rule: rule, Nodes: nodes, Detail: fmt.Sprintf(format, args...)})
}

// label names item i of a kind ("link 3"), or the kind alone when i < 0.
func label(kind string, i int) string {
	if i < 0 {
		return kind
	}
	return fmt.Sprintf("%s %d", kind, i)
}

// declared reports whether every one of us is one of the n declared
// routers, recording each undeclared one as a reference problem of kind's
// item i. -1 is not recorded: a failed declaration or an unknown spec name
// returns it after recording its own problem.
func (ps *Problems) declared(n int, kind string, i int, us ...bgp.NodeID) bool {
	ok := true
	for _, u := range us {
		if int(u) >= 0 && int(u) < n {
			continue
		}
		ok = false
		if u != -1 {
			ps.unknown(kind, i, u)
		}
	}
	return ok
}

// unknown records that kind's item i references u, which is not a router.
func (ps *Problems) unknown(kind string, i int, u bgp.NodeID) {
	ps.add(ReferenceRule, nil, "%s references unknown router %d", label(kind, i), u)
}

// exitAttributes records each negative MED, LOCAL-PREF or exit cost of
// kind's item i at router at ("" when undeclared). The selection procedure
// compares these with plain integer order; negative values have no
// protocol meaning.
func (ps *Problems) exitAttributes(kind string, i int, at string, s ExitSpec) {
	for _, a := range [...]struct {
		name string
		v    int64
	}{{"MED", int64(s.MED)}, {"LOCAL-PREF", int64(s.LocalPref)}, {"exit cost", s.ExitCost}} {
		if a.v >= 0 {
			continue
		}
		if at == "" {
			ps.add(AttributeRule, nil, "%s has malformed %s %d (must be non-negative)", label(kind, i), a.name, a.v)
		} else {
			ps.add(AttributeRule, []string{at}, "%s at %q has malformed %s %d (must be non-negative)", label(kind, i), at, a.name, a.v)
		}
	}
}

// check completes the builder's recorded problems with the rules over the
// whole configuration and returns them ordered by Rule, together with the
// physical graph of the valid links. It is linear in routers and links.
func (b *Builder) check() (*igp.Graph, Problems) {
	ps := b.problems[:len(b.problems):len(b.problems)] // appends copy: Build may run twice
	n := len(b.names)
	if n == 0 {
		ps.add(ClusterRule, nil, "no routers declared")
	}
	size := make([]int, len(b.parents))
	hasRR := make([]bool, len(b.parents))
	for i, c := range b.cluster {
		size[c]++
		hasRR[c] = hasRR[c] || b.roles[i] == Reflector
	}
	for c := range b.parents {
		switch {
		case size[c] == 0:
			ps.add(ClusterRule, nil, "cluster %d is empty", c)
		case !hasRR[c]:
			var clients []string
			for i, ci := range b.cluster {
				if ci == c {
					clients = append(clients, b.names[i])
				}
			}
			ps.add(ClusterRule, clients,
				"cluster %d has clients %s but no route reflector; the clients cannot learn or announce any I-BGP route",
				c, strings.Join(clients, ", "))
		}
	}
	// BGP identifiers must be unique (they are selection tie-breakers).
	seenID := make(map[int]bgp.NodeID, n)
	for i, id := range b.bgpIDs {
		if prev, dup := seenID[id]; dup {
			ps.add(ReferenceRule, []string{b.names[prev], b.names[i]},
				"routers %q and %q share BGP id %d", b.names[prev], b.names[i], id)
			continue
		}
		seenID[id] = bgp.NodeID(i)
	}
	// AddEdge refuses exactly the links Link recorded as problems.
	phys := igp.New(n)
	for _, l := range b.links {
		_ = phys.AddEdge(l.u, l.v, l.w)
	}
	if n > 0 && !phys.Connected() {
		var cut []string
		for u, d := range phys.Dijkstra(0).Dist {
			if d == igp.Infinity {
				cut = append(cut, b.names[u])
			}
		}
		ps.add(ConnectivityRule, cut, "physical graph G_P is not connected: %s unreachable from %q over links",
			strings.Join(cut, ", "), b.names[0])
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Rule < ps[j].Rule })
	return phys, ps
}
