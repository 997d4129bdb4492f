package protocol

// Binary state codec. A configuration is a fixed-width vector of uint64
// words — the interchange format between the engine and the Arena that
// interns configurations for Run and package explore. The layout, with
// W = ceil(NumExits/64) words per path set and n routers:
//
//	per node u (in node order):
//	    W words   PossibleExits(u)   (bitset, zero-padded to W)
//	    1 word    best[u]            (uint64(int64(PathID)); None = all ones)
//	    W words   advertised(u)      (bitset, zero-padded to W)
//	then, only under the Adaptive policy, per node u (its Revisits):
//	    1 word    min(count, AdaptiveThreshold) | upgraded<<32
//	    W words   held best routes   (bitset, zero-padded to W)
//
// Equal configurations encode to equal words (path sets are normalized:
// trailing zero words never vary with storage capacity), so the vector is
// both a dedup key and a restorable snapshot. The Adaptive block carries
// the oscillation-detector state that the Snapshot type omits.

import (
	"fmt"

	"repro/internal/bgp"
)

// pathWords returns the fixed word width of one path-set field.
func (e *Engine) pathWords() int { return (e.sys.NumExits() + 63) / 64 }

// StateWords returns the exact length of the word vector EncodeState
// produces. It is constant for a given engine, so arenas can use it as a
// stride.
func (e *Engine) StateWords() int {
	w := e.pathWords()
	n := len(e.possible)
	total := n * (2*w + 1)
	if e.policy == Adaptive {
		total += n * (w + 1)
	}
	return total
}

// appendPadded appends s's bitset words zero-padded to exactly w words.
func appendPadded(dst []uint64, s bgp.PathSet, w int) []uint64 {
	dst = s.AppendWords(dst)
	for pad := w - s.WordsLen(); pad > 0; pad-- {
		dst = append(dst, 0)
	}
	return dst
}

// EncodeState appends the current configuration to dst and returns the
// extended slice. It appends exactly StateWords() words and does not
// allocate when dst has capacity.
func (e *Engine) EncodeState(dst []uint64) []uint64 {
	w := e.pathWords()
	for u := range e.possible {
		dst = appendPadded(dst, e.possible[u], w)
		dst = append(dst, uint64(int64(e.best[u])))
		dst = appendPadded(dst, e.advertised[u], w)
	}
	if e.policy == Adaptive {
		// Below the threshold the revisit count and held routes steer future
		// behaviour; past it only the upgrade flag does, so the count is
		// capped to keep equal-behaving states equal.
		for _, d := range e.revisits {
			word := uint64(min(d.count, AdaptiveThreshold))
			if d.upgraded {
				word |= 1 << 32
			}
			dst = appendPadded(append(dst, word), d.held, w)
		}
	}
	return dst
}

// validPathWords reports whether a path-set field contains only bits that
// name real exit paths of the system.
func (e *Engine) validPathWords(ws []uint64) bool {
	n := e.sys.NumExits()
	if n%64 != 0 && len(ws) > 0 && ws[len(ws)-1]>>uint(n%64) != 0 {
		return false
	}
	return true
}

// DecodeState loads a configuration previously produced by EncodeState on
// an engine over the same system and policy. It validates the vector —
// wrong length, out-of-range best paths, bits naming nonexistent exit
// paths, or malformed Adaptive detector words are rejected with an error
// and leave the engine in a mixed but internally consistent state. Like
// RestoreFrom it does not touch the derived learnedFrom attribution,
// which the next gather rewrites. It does not allocate beyond path-set
// growth on first use.
func (e *Engine) DecodeState(src []uint64) error {
	if len(src) != e.StateWords() {
		return fmt.Errorf("protocol: DecodeState: got %d words, want %d", len(src), e.StateWords())
	}
	w := e.pathWords()
	numExits := int64(e.sys.NumExits())
	for u := range e.possible {
		if !e.validPathWords(src[:w]) {
			return fmt.Errorf("protocol: DecodeState: possible[%d] names nonexistent paths", u)
		}
		e.possible[u].SetWords(src[:w])
		src = src[w:]
		best := int64(src[0])
		if best < -1 || best >= numExits {
			return fmt.Errorf("protocol: DecodeState: best[%d] = %d out of range", u, best)
		}
		e.best[u] = bgp.PathID(best)
		src = src[1:]
		if !e.validPathWords(src[:w]) {
			return fmt.Errorf("protocol: DecodeState: advertised[%d] names nonexistent paths", u)
		}
		e.advertised[u].SetWords(src[:w])
		src = src[w:]
	}
	if e.policy == Adaptive {
		for u := range e.revisits {
			word, held := src[0], src[1:1+w]
			count := word &^ (1 << 32)
			if count > AdaptiveThreshold || word>>33 != 0 {
				return fmt.Errorf("protocol: DecodeState: malformed detector word %#x at node %d", word, u)
			}
			if !e.validPathWords(held) {
				return fmt.Errorf("protocol: DecodeState: held routes of node %d name nonexistent paths", u)
			}
			d := &e.revisits[u]
			d.count, d.upgraded = int32(count), word&(1<<32) != 0
			d.held.SetWords(held)
			src = src[1+w:]
		}
	}
	return nil
}

// Clone returns an independent engine over the same (shared, read-only)
// system and dominance table with a deep copy of all mutable state. The
// observer and scratch buffers are not shared, so a clone may run on
// another goroutine as long as the two engines are not used concurrently
// with each other's results.
func (e *Engine) Clone() *Engine {
	n := len(e.possible)
	c := &Engine{
		sys:        e.sys,
		policy:     e.policy,
		opts:       e.opts,
		dom:        e.dom,
		myExits:    make([]bgp.PathSet, n),
		possible:   make([]bgp.PathSet, n),
		best:       append([]bgp.PathID(nil), e.best...),
		advertised: make([]bgp.PathSet, n),
		learned:    make([][]int, n),
		revisits:   make([]Revisits, n),
		step:       e.step,
		lfNext:     make([]int, e.sys.NumExits()),
	}
	for u := 0; u < n; u++ {
		c.myExits[u] = e.myExits[u].Clone()
		c.possible[u] = e.possible[u].Clone()
		c.advertised[u] = e.advertised[u].Clone()
		c.revisits[u] = e.revisits[u]
		c.revisits[u].held = e.revisits[u].held.Clone()
		c.learned[u] = append([]int(nil), e.learned[u]...)
	}
	return c
}
