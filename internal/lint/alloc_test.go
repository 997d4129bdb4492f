//go:build !race

// Allocation floor for the exact prover. The race detector instruments
// allocations, so the floor only holds (and only runs) in normal builds;
// `go test -race` skips this file via the build constraint.

package lint

import "testing"

// TestProveAllocFloor pins the heap allocations of one ProveSystem call on
// topogen.Default() seed 1 with warm shortest-path trees. The CNF lives in
// one literal arena and the solver's clause store and watch lists in a few
// flat arrays, and the wheel pass re-solves from the first solve's set-up,
// so a proof allocates about 13.3k objects, half of them in the two engine
// replays and the core index; building per-clause slices again (about
// 146k) trips the floor at once.
func TestProveAllocFloor(t *testing.T) {
	const floor = 15000
	sys := warmDefaultSystems(t, 1)[0]
	if got := testing.AllocsPerRun(3, func() { ProveSystem("floor", sys) }); got > floor {
		t.Fatalf("ProveSystem allocated %.0f objects per call, want <= %d", got, floor)
	}
}
