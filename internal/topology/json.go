package topology

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/bgp"
)

// Spec is the JSON-serializable description of a System, consumed by the
// command-line tools. Nodes are referenced by name.
type Spec struct {
	// Comment is free-form and ignored by the loader.
	Comment string `json:"comment,omitempty"`
	// Clusters lists the route-reflection clusters.
	Clusters []ClusterSpec `json:"clusters"`
	// Links lists the physical IGP links.
	Links []LinkSpec `json:"links"`
	// ClientSessions lists optional same-cluster client-client sessions.
	ClientSessions []SessionSpec `json:"clientSessions,omitempty"`
	// Exits lists the injected exit paths (prefix 0 in a multi-prefix
	// domain).
	Exits []ExitJSON `json:"exits"`
	// PrefixExits optionally lists exit sets for additional prefixes:
	// PrefixExits[i] is the exit list of prefix i+1, layered over the same
	// session graph (BuildSpecAll). Absent for single-prefix specs, so
	// existing files round-trip byte-identically.
	PrefixExits [][]ExitJSON `json:"prefixExits,omitempty"`
	// BGPIDs optionally overrides per-node BGP identifiers.
	BGPIDs map[string]int `json:"bgpIds,omitempty"`
}

// ClusterSpec names the reflectors and clients of one cluster. Parent,
// when present, nests the cluster under an earlier cluster (by index),
// building a multi-level hierarchy.
type ClusterSpec struct {
	Reflectors []string `json:"reflectors"`
	Clients    []string `json:"clients,omitempty"`
	Parent     *int     `json:"parent,omitempty"`
}

// LinkSpec is one physical link.
type LinkSpec struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Cost int64  `json:"cost"`
}

// SessionSpec is one extra client-client I-BGP session.
type SessionSpec struct {
	A string `json:"a"`
	B string `json:"b"`
}

// ExitJSON is one exit path.
type ExitJSON struct {
	At        string  `json:"at"`
	LocalPref int     `json:"localPref,omitempty"`
	ASPathLen int     `json:"asPathLen,omitempty"`
	NextAS    bgp.ASN `json:"nextAS"`
	MED       int     `json:"med"`
	ExitCost  int64   `json:"exitCost,omitempty"`
	NextHopID int     `json:"nextHopId,omitempty"`
	TieBreak  int     `json:"tieBreak,omitempty"`
}

// spec converts the JSON form of an exit into the Builder's.
func (e ExitJSON) spec() ExitSpec {
	return ExitSpec{
		LocalPref: e.LocalPref,
		ASPathLen: e.ASPathLen,
		NextAS:    e.NextAS,
		MED:       e.MED,
		ExitCost:  e.ExitCost,
		NextHopID: e.NextHopID,
		TieBreak:  e.TieBreak,
	}
}

// fromSpec declares a spec on a Builder, resolving every router name it
// references; each unknown name is recorded as a problem and resolves to
// -1, which the Builder does not report again. It returns the Builder,
// carrying prefix 0's exits, and the resolved exit lists of the further
// prefixes, whose attributes it checks as Builder.Exit does.
func fromSpec(spec *Spec) (*Builder, [][]PrefixExit) {
	b := NewBuilder()
	for _, c := range spec.Clusters {
		var k int
		if c.Parent != nil {
			k = b.SubCluster(*c.Parent)
		} else {
			k = b.NewCluster()
		}
		for _, name := range c.Reflectors {
			b.Reflector(name, k)
		}
		for _, name := range c.Clients {
			b.Client(name, k)
		}
	}
	lookup := func(kind string, i int, name string) bgp.NodeID {
		if id, ok := b.ids[name]; ok {
			return id
		}
		b.problems.add(ReferenceRule, []string{name}, "%s references unknown router %q", label(kind, i), name)
		return -1
	}
	for i, l := range spec.Links {
		b.Link(lookup("link", i, l.A), lookup("link", i, l.B), l.Cost)
	}
	for i, cs := range spec.ClientSessions {
		b.ClientSession(lookup("client session", i, cs.A), lookup("client session", i, cs.B))
	}
	for i, e := range spec.Exits {
		b.Exit(lookup("exit", i, e.At), e.spec())
	}
	// Apply BGP id overrides in sorted name order so that the order of
	// the problems does not depend on map iteration order.
	names := make([]string, 0, len(spec.BGPIDs))
	for name := range spec.BGPIDs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.SetBGPID(lookup("bgpIds override", -1, name), spec.BGPIDs[name])
	}
	overlays := make([][]PrefixExit, len(spec.PrefixExits))
	for pi, exits := range spec.PrefixExits {
		kind := fmt.Sprintf("prefix %d exit", pi+1)
		overlays[pi] = make([]PrefixExit, len(exits))
		for i, e := range exits {
			overlays[pi][i] = PrefixExit{At: lookup(kind, i, e.At), Spec: e.spec()}
			b.problems.exitAttributes(kind, i, e.At, e.spec())
		}
	}
	return b, overlays
}

// Check reports every violation of the model's structural rules in spec,
// the exit lists of every prefix included (see Problem). It is empty
// exactly when BuildSpec, BuildSpecAll and Load accept the spec, and it is
// linear in routers, links and exits.
func Check(spec *Spec) Problems {
	b, _ := fromSpec(spec)
	_, ps := b.check()
	return ps
}

// BuildSpec converts a Spec into the System of prefix 0. It fails, with
// the Problems Check reports, on any structural problem of any prefix.
func BuildSpec(spec *Spec) (*System, error) {
	b, _ := fromSpec(spec)
	return b.Build()
}

// BuildSpecAll converts a Spec into the per-prefix systems of a
// multi-prefix domain: index 0 is the base System built from Exits, and
// each PrefixExits entry becomes a WithExits overlay sharing the base's
// session graph. Single-prefix specs return a one-element slice.
func BuildSpecAll(spec *Spec) ([]*System, error) {
	b, overlays := fromSpec(spec)
	base, err := b.Build()
	if err != nil {
		return nil, err
	}
	out := make([]*System, 1, 1+len(overlays))
	out[0] = base
	for _, exits := range overlays {
		ov, err := base.WithExits(exits)
		if err != nil {
			return nil, err
		}
		out = append(out, ov)
	}
	return out, nil
}

// ParseSpec decodes a JSON Spec without validating or building it. Unknown
// fields and anything after the spec object other than whitespace are
// rejected, so a confederation spec (package confed) or a concatenated
// file does not silently half-parse. The static analyzer (package lint)
// uses this to inspect configurations too broken for Build to accept.
func ParseSpec(r io.Reader) (*Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("topology: decoding spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("topology: decoding spec: trailing data after the spec object")
	}
	return &spec, nil
}

// Load reads a JSON Spec and builds the System of prefix 0.
func Load(r io.Reader) (*System, error) {
	spec, err := ParseSpec(r)
	if err != nil {
		return nil, err
	}
	return BuildSpec(spec)
}

// ToSpec converts a System back into a serializable Spec. Link costs are
// recovered from the physical graph, so parallel links collapse to the
// cheapest.
func ToSpec(s *System) *Spec {
	spec := &Spec{}
	for c := 0; c < s.NumClusters(); c++ {
		var cs ClusterSpec
		if p := s.ClusterParent(c); p >= 0 {
			pp := p
			cs.Parent = &pp
		}
		for _, u := range s.ClusterMembers(c) {
			if s.Role(u) == Reflector {
				cs.Reflectors = append(cs.Reflectors, s.Name(u))
			} else {
				cs.Clients = append(cs.Clients, s.Name(u))
			}
		}
		spec.Clusters = append(spec.Clusters, cs)
	}
	n := s.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if s.Phys().HasEdge(bgp.NodeID(u), bgp.NodeID(v)) {
				spec.Links = append(spec.Links, LinkSpec{
					A:    s.Name(bgp.NodeID(u)),
					B:    s.Name(bgp.NodeID(v)),
					Cost: s.Phys().EdgeCost(bgp.NodeID(u), bgp.NodeID(v)),
				})
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			uID, vID := bgp.NodeID(u), bgp.NodeID(v)
			if s.Role(uID) == Client && s.Role(vID) == Client && s.HasSession(uID, vID) {
				spec.ClientSessions = append(spec.ClientSessions, SessionSpec{A: s.Name(uID), B: s.Name(vID)})
			}
		}
	}
	for _, p := range s.Exits() {
		spec.Exits = append(spec.Exits, ExitJSON{
			At:        s.Name(p.ExitPoint),
			LocalPref: p.LocalPref,
			ASPathLen: p.ASPathLen,
			NextAS:    p.NextAS,
			MED:       p.MED,
			ExitCost:  p.ExitCost,
			NextHopID: p.NextHopID,
			TieBreak:  p.TieBreak,
		})
	}
	spec.BGPIDs = map[string]int{}
	for u := 0; u < n; u++ {
		spec.BGPIDs[s.Name(bgp.NodeID(u))] = s.BGPID(bgp.NodeID(u))
	}
	return spec
}

// Save writes the System as indented JSON.
func Save(w io.Writer, s *System) error {
	spec := ToSpec(s)
	sort.Slice(spec.Links, func(i, j int) bool {
		if spec.Links[i].A != spec.Links[j].A {
			return spec.Links[i].A < spec.Links[j].A
		}
		return spec.Links[i].B < spec.Links[j].B
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
