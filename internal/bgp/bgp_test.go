package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPathSetBasics(t *testing.T) {
	var s PathSet
	if s.Len() != 0 {
		t.Fatalf("zero PathSet not empty: %v", s)
	}
	s.Add(3)
	s.Add(70) // crosses a word boundary
	s.Add(3)  // duplicate
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(3) || !s.Contains(70) || s.Contains(4) {
		t.Fatalf("membership wrong: %v", s)
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 70 {
		t.Fatalf("IDs = %v, want [3 70]", ids)
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 1 {
		t.Fatalf("Remove failed: %v", s)
	}
	s.Remove(999) // out of range: no-op
	s.Remove(-1)
	if s.Len() != 1 {
		t.Fatalf("no-op removes changed set: %v", s)
	}
}

func TestPathSetAddNone(t *testing.T) {
	var s PathSet
	s.Add(None)
	if s.Len() != 0 {
		t.Fatalf("adding None should be a no-op, got %v", s)
	}
	if s.Contains(None) {
		t.Fatal("Contains(None) must be false")
	}
}

func TestPathSetUnionCloneEqual(t *testing.T) {
	a := NewPathSet(1, 2, 3)
	b := NewPathSet(3, 100)
	c := a.Clone()
	a.Union(b)
	for _, id := range []PathID{1, 2, 3, 100} {
		if !a.Contains(id) {
			t.Fatalf("union missing %d: %v", id, a)
		}
	}
	if c.Contains(100) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Equal(NewPathSet(1, 2, 3)) {
		t.Fatalf("clone altered: %v", c)
	}
	// Intersect keeps the common members, including against a shorter set.
	if a.Intersect(NewPathSet(2, 3)); !a.Equal(NewPathSet(2, 3)) {
		t.Fatalf("intersection = %v, want {p2,p3}", a)
	}
}

func TestPathSetEqualDifferentCapacity(t *testing.T) {
	a := NewPathSet(1)
	b := NewPathSet(1, 200)
	b.Remove(200) // b now has a longer word slice with the same content
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("sets with different capacities compare unequal: %v vs %v", a, b)
	}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ for equal sets: %q vs %q", a.Key(), b.Key())
	}
}

func TestPathSetKeyDistinguishes(t *testing.T) {
	a := NewPathSet(0, 64)
	b := NewPathSet(1, 64)
	if a.Key() == b.Key() {
		t.Fatalf("distinct sets share key %q", a.Key())
	}
}

func TestPathSetString(t *testing.T) {
	s := NewPathSet(2, 0)
	if got := s.String(); got != "{p0,p2}" {
		t.Fatalf("String = %q, want {p0,p2}", got)
	}
	var empty PathSet
	if got := empty.String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestPathSetQuickSemantics(t *testing.T) {
	// A PathSet behaves exactly like a map[PathID]bool under a random
	// operation sequence.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s PathSet
		ref := map[PathID]bool{}
		for i := 0; i < 300; i++ {
			id := PathID(rng.Intn(130))
			switch rng.Intn(3) {
			case 0:
				s.Add(id)
				ref[id] = true
			case 1:
				s.Remove(id)
				delete(ref, id)
			default:
				if s.Contains(id) != ref[id] {
					return false
				}
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for _, id := range s.IDs() {
			if !ref[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathSetQuickUnionIsSetUnion(t *testing.T) {
	check := func(xs, ys []uint8) bool {
		var a, b PathSet
		ref := map[PathID]bool{}
		for _, x := range xs {
			a.Add(PathID(x))
			ref[PathID(x)] = true
		}
		for _, y := range ys {
			b.Add(PathID(y))
			ref[PathID(y)] = true
		}
		a.Union(b)
		if a.Len() != len(ref) {
			return false
		}
		for id := range ref {
			if !a.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteStrings(t *testing.T) {
	p := ExitPath{ID: 1, LocalPref: 100, ASPathLen: 2, NextAS: 7, MED: 3, ExitPoint: 4, ExitCost: 5}
	r := Route{Path: p, At: 4, Metric: 5, LearnedFrom: 9}
	if !r.EBGP() {
		t.Fatal("route at exit point must be E-BGP")
	}
	if r.String() == "" || p.String() == "" {
		t.Fatal("empty String()")
	}
	r.At = 0
	if r.EBGP() {
		t.Fatal("route away from exit point must be I-BGP")
	}
}
