package protocol

import (
	"slices"

	"repro/internal/bgp"
)

// Arena is the one identity of a configuration: it interns EncodeState word
// vectors. Every distinct configuration is stored exactly once in one flat
// []uint64 and identified by its dense int32 id in interning order.
// Deduplication hashes the word vector and verifies candidate matches
// word-for-word, so hash collisions cannot merge distinct states.
//
// The reachable-state search of package explore interns every state it
// discovers, so its breadth-first queue is nothing but an id range; Run
// interns the configuration at each schedule-period boundary, so a revisit
// proves a cycle.
type Arena struct {
	stride int
	count  int
	words  []uint64           // count * stride words, state id * stride ...
	index  map[uint64][]int32 // word-vector hash -> candidate ids
}

// NewArena returns an empty arena for vectors of stride words, the
// StateWords of the engine whose states it interns.
func NewArena(stride int) *Arena {
	return &Arena{stride: stride, index: make(map[uint64][]int32)}
}

// Stride returns the word length of every interned vector.
func (a *Arena) Stride() int { return a.stride }

// Len returns the number of interned states; ids run from 0 to Len()-1.
func (a *Arena) Len() int { return a.count }

// At returns the word vector of state id, viewing the arena's storage. The
// view is invalidated by the next Intern that grows the arena.
func (a *Arena) At(id int32) []uint64 {
	off := int(id) * a.stride
	return a.words[off : off+a.stride]
}

// Intern returns the id of the state with the given word vector, adding it
// to the arena when unseen. The second result reports whether the state was
// new. The vector is copied; callers may reuse w.
func (a *Arena) Intern(w []uint64) (int32, bool) {
	h := bgp.HashWords(w)
	for _, id := range a.index[h] {
		if slices.Equal(a.At(id), w) {
			return id, false
		}
	}
	id := int32(a.count)
	a.count++
	a.words = append(a.words, w...)
	a.index[h] = append(a.index[h], id)
	return id, true
}
