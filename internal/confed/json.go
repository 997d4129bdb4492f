package confed

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/bgp"
)

// Spec is the JSON-serializable description of a confederation.
type Spec struct {
	Comment string `json:"comment,omitempty"`
	// SubASes lists the member sub-ASes, each naming its routers.
	SubASes [][]string `json:"subASes"`
	// Links lists the physical IGP links.
	Links []LinkSpec `json:"links"`
	// Sessions lists the confed-BGP border sessions.
	Sessions []SessionSpec `json:"confedSessions"`
	// Exits lists the injected exit paths.
	Exits []ExitSpec `json:"exits"`
}

// LinkSpec is one physical link.
type LinkSpec struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Cost int64  `json:"cost"`
}

// SessionSpec is one confed-BGP session.
type SessionSpec struct {
	A string `json:"a"`
	B string `json:"b"`
}

// ExitSpec is one exit path.
type ExitSpec struct {
	At        string  `json:"at"`
	LocalPref int     `json:"localPref,omitempty"`
	ASPathLen int     `json:"asPathLen,omitempty"`
	NextAS    bgp.ASN `json:"nextAS"`
	MED       int     `json:"med"`
	ExitCost  int64   `json:"exitCost,omitempty"`
}

// BuildSpec converts a Spec into a System.
func BuildSpec(spec *Spec) (*System, error) {
	b := NewBuilder()
	ids := map[string]bgp.NodeID{}
	for _, sub := range spec.SubASes {
		s := b.NewSubAS()
		for _, name := range sub {
			ids[name] = b.Router(name, s)
		}
	}
	lookup := func(name string) (bgp.NodeID, error) {
		id, ok := ids[name]
		if !ok {
			return -1, fmt.Errorf("confed: unknown router name %q", name)
		}
		return id, nil
	}
	for _, l := range spec.Links {
		a, err := lookup(l.A)
		if err != nil {
			return nil, err
		}
		c, err := lookup(l.B)
		if err != nil {
			return nil, err
		}
		b.Link(a, c, l.Cost)
	}
	for _, sess := range spec.Sessions {
		a, err := lookup(sess.A)
		if err != nil {
			return nil, err
		}
		c, err := lookup(sess.B)
		if err != nil {
			return nil, err
		}
		b.ConfedSession(a, c)
	}
	for _, e := range spec.Exits {
		at, err := lookup(e.At)
		if err != nil {
			return nil, err
		}
		b.Exit(at, e.LocalPref, e.ASPathLen, e.NextAS, e.MED, e.ExitCost)
	}
	return b.Build()
}

// Load reads a JSON Spec and builds the System. The input must hold the
// spec object alone: anything after it other than whitespace is rejected.
func Load(r io.Reader) (*System, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("confed: decoding spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("confed: decoding spec: trailing data after the spec object")
	}
	return BuildSpec(&spec)
}

// ToSpec converts a System back into a serializable Spec.
func ToSpec(s *System) *Spec {
	spec := &Spec{SubASes: make([][]string, s.NumSubAS())}
	for u := 0; u < s.N(); u++ {
		sub := s.SubAS(bgp.NodeID(u))
		spec.SubASes[sub] = append(spec.SubASes[sub], s.Name(bgp.NodeID(u)))
	}
	for u := 0; u < s.N(); u++ {
		for v := u + 1; v < s.N(); v++ {
			uid, vid := bgp.NodeID(u), bgp.NodeID(v)
			if s.phys.HasEdge(uid, vid) {
				spec.Links = append(spec.Links, LinkSpec{
					A: s.Name(uid), B: s.Name(vid), Cost: s.phys.EdgeCost(uid, vid),
				})
			}
			if s.IsConfedSession(uid, vid) {
				spec.Sessions = append(spec.Sessions, SessionSpec{A: s.Name(uid), B: s.Name(vid)})
			}
		}
	}
	for _, p := range s.exits {
		spec.Exits = append(spec.Exits, ExitSpec{
			At:        s.Name(p.ExitPoint),
			LocalPref: p.LocalPref,
			ASPathLen: p.ASPathLen,
			NextAS:    p.NextAS,
			MED:       p.MED,
			ExitCost:  p.ExitCost,
		})
	}
	return spec
}

// Save writes the System as indented JSON.
func Save(w io.Writer, s *System) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToSpec(s))
}
