// Package bgp defines the route and exit-path model from Section 4 of
// "Route Oscillations in I-BGP with Route Reflection" (Basu, Ong, Rasala,
// Shepherd, Wilfong; SIGCOMM 2002).
//
// The model tracks routes for a single external destination prefix d. An
// ExitPath represents a BGP route to d injected into the autonomous system
// AS0 by an E-BGP message; it carries the attributes the selection procedure
// reads (LOCAL-PREF, AS-PATH length, neighbouring AS, MED, exit point and
// exit cost). A Route is an exit path seen from a particular router u: the
// path pair (SP(u, exitPoint), p), whose metric is the IGP shortest-path
// cost from u to the exit point plus the exit cost.
package bgp

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// NodeID identifies a router (an I-BGP speaker) inside AS0. Routers are
// numbered densely from 0, so a NodeID doubles as a slice index.
type NodeID int

// ASN identifies a neighbouring autonomous system (the nextAS attribute of
// an exit path). The value of AS0 itself never appears as a nextAS.
type ASN int

// PathID identifies an exit path within a System. Exit paths are numbered
// densely from 0, so a PathID doubles as a slice index. None marks the
// absence of a path.
type PathID int

// None is the PathID used when a router has selected no route.
const None PathID = -1

// ExitPath is a BGP route to the destination d as injected into AS0,
// together with the attributes assigned at injection time (Section 4,
// "Routes and Exit Paths").
type ExitPath struct {
	// ID is the dense index of this path within its System.
	ID PathID

	// LocalPref is the degree of preference assigned when the route was
	// injected into I-BGP. Higher is better (selection rule 1).
	LocalPref int

	// ASPathLen is the length of the AS-PATH attribute. Shorter is better
	// (selection rule 2).
	ASPathLen int

	// NextAS is the neighbouring AS from which AS0 received the route via
	// E-BGP. MED values are compared only between routes with equal NextAS
	// (selection rule 3).
	NextAS ASN

	// MED is the MULTI-EXIT-DISCRIMINATOR. Lower is better, but only
	// against routes through the same NextAS.
	MED int

	// ExitPoint is the router in AS0 that learned the route via E-BGP.
	// There is a one-one correspondence between the NEXT-HOP attribute and
	// the exit point, so the next hop itself is not modelled separately.
	ExitPoint NodeID

	// ExitCost is the cost associated with the link from the exit point to
	// the external next hop. Usually 0 in practice.
	ExitCost int64

	// NextHopID is the BGP identifier of the external peer announcing the
	// route. It serves as learnedFrom for a router that holds the route as
	// an E-BGP route (selection rule 6).
	NextHopID int

	// TieBreak, when >= 0, overrides learnedFrom for every router with a
	// fixed per-path integer. The NP-hardness construction of Section 5
	// assumes such uniquely defined tie-break values. When negative, the
	// learnedFrom of the announcing I-BGP peer is used instead.
	TieBreak int
}

// String renders the path compactly for traces and test failures.
func (p ExitPath) String() string {
	return fmt.Sprintf("p%d{lp=%d aspl=%d as=%d med=%d exit=v%d ec=%d}",
		p.ID, p.LocalPref, p.ASPathLen, p.NextAS, p.MED, p.ExitPoint, p.ExitCost)
}

// Route is an exit path as evaluated at a particular router: the pair
// (SP(u, exitPoint(p)), p) of Section 4. Metric is cost(SP(u, exitPoint))
// plus the exit cost; LearnedFrom is the BGP identifier of the peer the
// route was learned from (the external next hop for an E-BGP route, the
// announcing I-BGP neighbour otherwise).
type Route struct {
	Path        ExitPath
	At          NodeID
	Metric      int64
	LearnedFrom int
}

// EBGP reports whether the route is an E-BGP route at its owning router.
func (r Route) EBGP() bool { return r.Path.ExitPoint == r.At }

// String renders the route compactly.
func (r Route) String() string {
	kind := "ibgp"
	if r.EBGP() {
		kind = "ebgp"
	}
	return fmt.Sprintf("route{%s at=v%d metric=%d from=%d %s}", kind, r.At, r.Metric, r.LearnedFrom, r.Path)
}

// PathSet is a set of exit paths represented as a bitset over PathIDs. The
// zero value is the empty set. PathSet values are small and copied freely;
// mutating methods have pointer receivers.
type PathSet struct {
	words []uint64
}

// NewPathSet returns a set containing the given paths.
func NewPathSet(ids ...PathID) PathSet {
	var s PathSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// PathSetOver returns a set that views words (lowest first) in place, so
// many fixed-width sets can be carved from one backing slab: in-range Add
// and Remove write through to words. The view is capacity-clipped — an Add
// past its width reallocates the view's own storage instead of spilling
// into a neighbour, so callers that must keep the slab authoritative bound
// their IDs first.
func PathSetOver(words []uint64) PathSet {
	return PathSet{words: words[:len(words):len(words)]}
}

// Words returns the set's backing words, lowest first, without copying —
// the read side of PathSetOver, for word-at-a-time kernels. Trailing words
// may be zero; callers must not mutate the slice.
func (s PathSet) Words() []uint64 { return s.words }

// Add inserts id into the set. Adding None is a no-op.
func (s *PathSet) Add(id PathID) {
	if id < 0 {
		return
	}
	w := int(id) / 64
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(id) % 64)
}

// Grow pre-sizes the word storage to hold IDs in [0, n) without further
// allocation. Membership is unchanged: the new words are zero.
func (s *PathSet) Grow(n int) {
	if n <= 0 {
		return
	}
	w := (n + 63) / 64
	for len(s.words) < w {
		s.words = append(s.words, 0)
	}
}

// Remove deletes id from the set if present.
func (s *PathSet) Remove(id PathID) {
	if id < 0 {
		return
	}
	w := int(id) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(id) % 64)
	}
}

// Contains reports whether id is in the set.
func (s PathSet) Contains(id PathID) bool {
	if id < 0 {
		return false
	}
	w := int(id) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(id)%64)) != 0
}

// Len returns the number of paths in the set.
func (s PathSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IDs returns the member PathIDs in increasing order.
func (s PathSet) IDs() []PathID {
	ids := make([]PathID, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			ids = append(ids, PathID(wi*64+bit))
			w &^= 1 << uint(bit)
		}
	}
	return ids
}

// AppendIDs appends the member PathIDs in increasing order to dst and
// returns the extended slice — the allocation-free counterpart of IDs for
// hot paths that keep a reusable scratch slice.
func (s PathSet) AppendIDs(dst []PathID) []PathID {
	for wi, w := range s.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = append(dst, PathID(wi*64+bit))
			w &^= 1 << uint(bit)
		}
	}
	return dst
}

// ForEach calls fn for every member in increasing order, without
// allocating. It is the iteration primitive for hot paths; use IDs when a
// slice is genuinely needed.
func (s PathSet) ForEach(fn func(PathID)) {
	for wi, w := range s.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(PathID(wi*64 + bit))
			w &^= 1 << uint(bit)
		}
	}
}

// Union adds every member of t to s.
func (s *PathSet) Union(t PathSet) {
	for len(s.words) < len(t.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Clone returns an independent copy of the set.
func (s PathSet) Clone() PathSet {
	c := PathSet{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Copy replaces s's contents with t's, reusing s's storage where possible.
// It is the allocation-free counterpart of Clone for scratch sets that are
// overwritten repeatedly.
func (s *PathSet) Copy(t PathSet) {
	s.words = append(s.words[:0], t.words...)
}

// Clear empties the set, keeping its storage for reuse.
func (s *PathSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// WordsLen returns the number of significant 64-bit words: trailing zero
// words are excluded, so equal sets have equal WordsLen regardless of how
// their storage grew.
func (s PathSet) WordsLen() int {
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	return end
}

// AppendWords appends the significant words (WordsLen of them, lowest
// first) to dst and returns the extended slice. It is the binary,
// allocation-free counterpart of Key: equal sets append equal words.
func (s PathSet) AppendWords(dst []uint64) []uint64 {
	return append(dst, s.words[:s.WordsLen()]...)
}

// SetWords replaces the set's contents with the given bitset words (lowest
// first), copying them into the set's own storage. Trailing zero words are
// permitted; the resulting set equals one built by Add-ing every set bit.
func (s *PathSet) SetWords(ws []uint64) {
	s.words = append(s.words[:0], ws...)
}

// HashWords hashes a word vector (FNV-1a over 64-bit words with an extra
// fold). It is the dedup hash of the state-interning arena in package
// explore; it is not collision-free, so callers verify with the words.
func HashWords(ws []uint64) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, w := range ws {
		h ^= w
		h *= 1099511628211 // FNV prime
		h ^= h >> 29
	}
	return h
}

// Equal reports whether s and t contain exactly the same paths.
func (s PathSet) Equal(t PathSet) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key; equal sets produce
// equal keys regardless of internal capacity.
func (s PathSet) Key() string {
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	var b strings.Builder
	for _, w := range s.words[:end] {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// String renders the set as {p0,p3,...}.
func (s PathSet) String() string {
	ids := s.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("p%d", id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// SortPaths orders paths deterministically by ID, in place, and returns the
// slice for convenience.
func SortPaths(ps []ExitPath) []ExitPath {
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
	return ps
}
