//go:build !race

// Allocation floors for a simulated hop: delivered, and fault-dropped. The
// race detector instruments allocations, so the floors only hold (and
// only run) in normal builds.

package msgsim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
)

// TestDeliveredHopAllocFloor pins a steady-state delivered message at zero
// allocations: framing into the sender's scratch, queueing event and bytes
// in pooled calendar pages, and decoding a view at the receiver all reuse
// memory. Classic I-BGP on Figure 1(a) has no stable solution, so the
// fault-free run oscillates forever, and jittered delays spread its
// messages over the ring's buckets; any per-message allocation shows up
// thousands of times over.
func TestDeliveredHopAllocFloor(t *testing.T) {
	s := New(figures.Fig1a().Sys, protocol.Classic, selection.Options{}, MustRandomDelay(1, 1, 20))
	s.InjectAll()
	s.Run(5000) // grow the calendar's page pools and the routers' scratch
	const batch = 2000
	before := s.Counters().Received
	allocs := testing.AllocsPerRun(5, func() { s.Run(s.events + batch) })
	delivered := float64(s.Counters().Received-before) / 6 // AllocsPerRun adds a warm-up call
	if delivered < batch/4 {
		t.Fatalf("only %.0f deliveries per %d-event batch; the test is vacuous", delivered, batch)
	}
	// One allocation per Run call is Result.Best; nothing may scale with messages.
	if allocs > 1 {
		t.Errorf("%.0f allocations per batch of %.0f delivered messages, want <= 1 (0 per message)", allocs, delivered)
	}
}

// TestDropPathAllocFloor pins a steady-state hop under a drop-only plan at
// zero allocations per message: the fate is drawn before anything is
// encoded, and the send fails with a package-level sentinel. With every
// message dropped forever the run is one endless retry loop, so any
// per-drop allocation (a formatted error, a queued retry that is not
// pooled) shows up thousands of times over.
func TestDropPathAllocFloor(t *testing.T) {
	s := New(figures.Fig13().Sys, protocol.Modified, selection.Options{}, ConstantDelay(3))
	if err := s.SetFaults(&faults.Plan{Seed: 1, Drop: 1}); err != nil {
		t.Fatal(err)
	}
	s.InjectAll()
	s.Run(2000) // grow the calendar's page pools
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
