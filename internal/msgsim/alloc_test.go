//go:build !race

// Allocation floor for the fault-drop path. The race detector instruments
// allocations, so the floor only holds (and only runs) in normal builds.

package msgsim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
)

// TestDropPathAllocFloor pins a steady-state hop under a drop-only plan at
// zero allocations per message: the fate is drawn before a buffer is taken
// or a byte encoded, and the send fails with a package-level sentinel. With
// every message dropped forever the run is one endless retry loop, so any
// per-drop allocation (a leaked pooled buffer, a formatted error) shows up
// thousands of times over.
func TestDropPathAllocFloor(t *testing.T) {
	s := New(figures.Fig13().Sys, protocol.Modified, selection.Options{}, ConstantDelay(3))
	if err := s.SetFaults(&faults.Plan{Seed: 1, Drop: 1}); err != nil {
		t.Fatal(err)
	}
	s.InjectAll()
	s.Run(2000) // warm the freelists and the calendar's buckets
	const batch = 2000
	before := s.Counters().FaultDrops
	allocs := testing.AllocsPerRun(5, func() { s.Run(s.events + batch) })
	drops := float64(s.Counters().FaultDrops-before) / 6 // AllocsPerRun adds a warm-up call
	if drops < batch/4 {
		t.Fatalf("only %.0f drops per %d-event batch; the test is vacuous", drops, batch)
	}
	// One allocation per Run call is Result.Best; nothing may scale with drops.
	if allocs > 1 {
		t.Errorf("%.0f allocations per batch of %.0f dropped messages, want <= 1 (0 per message)", allocs, drops)
	}
}
