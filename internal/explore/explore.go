// Package explore decides stability questions for small systems
// exhaustively. The paper's STABLE I-BGP WITH ROUTE REFLECTION problem asks
// whether, from the cold-start configuration, *some* fair activation
// sequence reaches a configuration that never changes again. For small
// systems this is decidable by breadth-first search over the reachable
// configuration graph; the package also enumerates classic-I-BGP stable
// solutions globally (reachable or not) by fixed-point search over
// advertisement assignments.
package explore

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/bgp"
	"repro/internal/protocol"
)

// SuccessorMode selects which activation sets generate transitions in the
// reachable-state search.
type SuccessorMode int

const (
	// Singletons activates one node at a time. Cheapest; sufficient for
	// most systems, but simultaneous activations can reach extra states.
	Singletons SuccessorMode = iota
	// SingletonsPlusAll additionally activates the full node set at once.
	SingletonsPlusAll
	// AllSubsets activates every non-empty subset of nodes (2^n - 1
	// successors per state); exact for the paper's activation-set
	// semantics, feasible only for small n.
	AllSubsets
)

// Analysis is the result of a reachable-state search.
type Analysis struct {
	// States is the number of distinct configurations visited.
	States int
	// Transitions is the number of edges explored.
	Transitions int
	// FixedPoints are the reachable stable configurations, in discovery
	// order.
	FixedPoints []protocol.Snapshot
	// Truncated is true when the state or step limit was hit; the answer
	// is then only a lower bound.
	Truncated bool
}

// Stabilizable reports the paper's decision question: is some stable
// configuration reachable? Only meaningful when !Truncated.
func (a Analysis) Stabilizable() bool { return len(a.FixedPoints) > 0 }

// Options tunes Reachable.
type Options struct {
	// Mode selects the successor relation (default Singletons).
	Mode SuccessorMode
	// MaxStates bounds the search (default 200000).
	MaxStates int
	// Ctx, when non-nil, is polled during the search; once it is cancelled
	// the search stops early with Truncated set, so long-running censuses
	// can be interrupted between states rather than between seeds.
	Ctx context.Context
	// Workers sets the number of goroutines expanding the frontier; values
	// below 2 run serially. Parallel exploration is deterministic: the
	// Analysis — state and transition counts, truncation, and the order of
	// FixedPoints — is byte-identical to the serial result for every worker
	// count, because successors are folded into the arena in frontier
	// order regardless of which worker computed them.
	Workers int
}

// activationSets materialises the successor relation for an n-node system.
func activationSets(n int, mode SuccessorMode) [][]bgp.NodeID {
	var sets [][]bgp.NodeID
	switch mode {
	case AllSubsets:
		for mask := 1; mask < 1<<n; mask++ {
			var set []bgp.NodeID
			for u := 0; u < n; u++ {
				if mask&(1<<u) != 0 {
					set = append(set, bgp.NodeID(u))
				}
			}
			sets = append(sets, set)
		}
	case SingletonsPlusAll:
		for u := 0; u < n; u++ {
			sets = append(sets, []bgp.NodeID{bgp.NodeID(u)})
		}
		all := make([]bgp.NodeID, n)
		for u := range all {
			all[u] = bgp.NodeID(u)
		}
		sets = append(sets, all)
	default:
		for u := 0; u < n; u++ {
			sets = append(sets, []bgp.NodeID{bgp.NodeID(u)})
		}
	}
	return sets
}

// expansion holds one frontier state's precomputed outcome: whether it is a
// fixed point and, if not, the concatenated successor encodings (one
// stride-sized vector per activation set, in set order).
type expansion struct {
	stable bool
	succs  []uint64
}

// expand computes the expansion of the state stored at ar.At(id) into out,
// reusing out's successor buffer.
func expand(e *protocol.Engine, ar *protocol.Arena, id int32, sets [][]bgp.NodeID, out *expansion) {
	e.DecodeState(ar.At(id))
	if e.Stable() {
		out.stable = true
		return
	}
	out.stable = false
	out.succs = out.succs[:0]
	for _, set := range sets {
		e.DecodeState(ar.At(id))
		e.ActivateSet(set)
		out.succs = e.EncodeState(out.succs)
	}
}

// Reachable explores every configuration reachable from the engine's
// current configuration by breadth-first search over an interned state
// arena: each distinct configuration is encoded once as a fixed-width word
// vector, deduplicated by hash with full-word verification, and identified
// by its discovery index — no per-state string keys or snapshot clones.
// The engine is restored to its starting configuration before returning.
func Reachable(e *protocol.Engine, opts Options) Analysis {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 200000
	}
	sets := activationSets(e.Sys().N(), opts.Mode)
	stride := e.StateWords()
	ar := protocol.NewArena(stride)
	ar.Intern(e.EncodeState(make([]uint64, 0, stride)))
	defer func() { e.DecodeState(ar.At(0)) }()

	a := Analysis{}
	var fixed []int32
	if opts.Workers > 1 {
		fixed = reachableParallel(e, ar, sets, maxStates, opts, &a)
	} else {
		fixed = reachableSerial(e, ar, sets, maxStates, opts, &a)
	}
	for _, id := range fixed {
		e.DecodeState(ar.At(id))
		a.FixedPoints = append(a.FixedPoints, protocol.Snapshot{})
		e.SnapshotInto(&a.FixedPoints[len(a.FixedPoints)-1])
	}
	return a
}

// reachableSerial runs the BFS on the caller's engine. The queue is the id
// range [head, ar.Len()): states are interned in discovery order, so FIFO
// order and arena order coincide.
func reachableSerial(e *protocol.Engine, ar *protocol.Arena, sets [][]bgp.NodeID, maxStates int, opts Options, a *Analysis) []int32 {
	var fixed []int32
	var out expansion
	stride := ar.Stride()
	head := 0
	for head < ar.Len() {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			a.Truncated = true
			break
		}
		cur := int32(head)
		head++
		a.States++
		if a.States > maxStates {
			a.Truncated = true
			break
		}
		expand(e, ar, cur, sets, &out)
		if out.stable {
			// A fixed point has only self-loop successors; skip expanding.
			fixed = append(fixed, cur)
			continue
		}
		for off := 0; off < len(out.succs); off += stride {
			a.Transitions++
			ar.Intern(out.succs[off : off+stride])
		}
	}
	if head < ar.Len() {
		a.Truncated = true
	}
	return fixed
}

// reachableParallel runs the same BFS with level-synchronized frontier
// expansion: each round, the unexpanded id range [lo, hi) is claimed
// state-by-state by workers that compute expansions on private engine
// clones, then a single sequential fold interns the successors in frontier
// order. Interning order — hence every arena id, count, and the final
// Analysis — matches the serial run exactly.
func reachableParallel(e *protocol.Engine, ar *protocol.Arena, sets [][]bgp.NodeID, maxStates int, opts Options, a *Analysis) []int32 {
	engines := make([]*protocol.Engine, opts.Workers)
	engines[0] = e
	for i := 1; i < len(engines); i++ {
		engines[i] = e.Clone()
	}
	var fixed []int32
	stride := ar.Stride()
	results := []expansion(nil)
	lo := 0
	for lo < ar.Len() {
		hi := ar.Len()
		// Never expand deeper than the truncation limit can consume: the
		// fold below stops after maxStates-a.States+1 more states.
		if rem := maxStates - a.States + 1; hi-lo > rem {
			hi = lo + rem
		}
		for len(results) < hi-lo {
			results = append(results, expansion{})
		}
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for w := 0; w < len(engines) && w < hi-lo; w++ {
			wg.Add(1)
			go func(we *protocol.Engine) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					expand(we, ar, int32(i), sets, &results[i-lo])
				}
			}(engines[w])
		}
		wg.Wait()

		// Sequential fold in frontier order: byte-identical accounting and
		// arena growth to the serial loop.
		truncated := false
		for i := lo; i < hi; i++ {
			if opts.Ctx != nil && opts.Ctx.Err() != nil {
				a.Truncated = true
				truncated = true
				lo = i
				break
			}
			a.States++
			if a.States > maxStates {
				a.Truncated = true
				truncated = true
				lo = i + 1
				break
			}
			out := &results[i-lo]
			if out.stable {
				fixed = append(fixed, int32(i))
				continue
			}
			for off := 0; off < len(out.succs); off += stride {
				a.Transitions++
				ar.Intern(out.succs[off : off+stride])
			}
		}
		if truncated {
			break
		}
		lo = hi
	}
	if lo < ar.Len() {
		a.Truncated = true
	}
	return fixed
}

// StableEnumeration is the result of EnumerateStableClassic.
type StableEnumeration struct {
	// Solutions holds every stable configuration of the system under
	// classic I-BGP, as snapshots.
	Solutions []protocol.Snapshot
	// Candidates is the number of advertisement assignments examined.
	Candidates int
	// Truncated is true when the budget was exhausted; the enumeration is
	// then incomplete.
	Truncated bool
}

// EnumerateStableClassic enumerates every stable solution of the system
// under the Classic policy, reachable or not, by searching the space of
// advertisement assignments (under classic I-BGP each node advertises at
// most one exit path, so a configuration is determined by one PathID or
// None per node). budget bounds the number of assignments tried; 0 means
// 4,000,000. The engine must use the Classic policy; it is restored before
// returning.
func EnumerateStableClassic(e *protocol.Engine, budget int) StableEnumeration {
	if budget <= 0 {
		budget = 4_000_000
	}
	var start protocol.Snapshot
	e.SnapshotInto(&start)
	defer e.RestoreFrom(&start)

	n := e.Sys().N()
	// Candidate advertised paths per node: anything receivable there, or
	// nothing.
	cand := make([][]bgp.PathID, n)
	for u := 0; u < n; u++ {
		ids := e.ReceivablePaths(bgp.NodeID(u)).IDs()
		cand[u] = append([]bgp.PathID{bgp.None}, ids...)
	}

	res := StableEnumeration{}
	idx := make([]int, n)
	adv := make([]bgp.PathSet, n)
	for {
		res.Candidates++
		if res.Candidates > budget {
			res.Truncated = true
			return res
		}
		for u := 0; u < n; u++ {
			adv[u].Clear()
			adv[u].Add(cand[u][idx[u]])
		}
		if e.InducedConfig(adv) && e.Stable() {
			res.Solutions = append(res.Solutions, protocol.Snapshot{})
			e.SnapshotInto(&res.Solutions[len(res.Solutions)-1])
		}
		// Advance the mixed-radix counter.
		u := 0
		for u < n {
			idx[u]++
			if idx[u] < len(cand[u]) {
				break
			}
			idx[u] = 0
			u++
		}
		if u == n {
			return res
		}
	}
}
