package router

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/wire"
)

// TestMuxFanOut: every registered sink sees every dispatched event, in
// registration order, exactly once.
func TestMuxFanOut(t *testing.T) {
	var m Mux
	var order []string
	m.Add(func(ev Event) { order = append(order, "a") })
	m.Add(nil) // ignored
	m.Add(func(ev Event) { order = append(order, "b") })
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (nil sink must be ignored)", m.Len())
	}
	m.DispatchBatch([]Event{{Kind: Injected}})
	m.DispatchBatch([]Event{{Kind: Withdrawn}})
	want := []string{"a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("sinks saw %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sinks saw %v, want %v", order, want)
		}
	}
}

// TestMuxAddAfterDispatchPanics: the first DispatchBatch seals the Mux — a
// late Add must panic rather than race the running event stream.
func TestMuxAddAfterDispatchPanics(t *testing.T) {
	var m Mux
	m.Add(func(Event) {})
	m.DispatchBatch([]Event{{Kind: Injected}})
	defer func() {
		if recover() == nil {
			t.Fatal("Mux.Add after DispatchBatch did not panic")
		}
	}()
	m.Add(func(Event) {})
}

// TestEventsSetOnceBeforeStart is the regression test for the sink
// registration contract: Events may be (re)installed freely during wiring,
// but once any operation has mutated the core a registration panics. Run
// under -race in CI, this also pins that the legal wiring pattern is
// race-clean.
func TestEventsSetOnceBeforeStart(t *testing.T) {
	sys, rr, paths := star(t)
	var c Counters
	r := Single(sys, protocol.Modified, selection.Options{}).NewRouter(rr, &c)

	// Replacing the sink before the first operation is allowed.
	r.Events(func(Event) {})
	var got int
	r.Events(func(Event) { got++ })

	r.Inject(0, 0, paths[0])
	if got == 0 {
		t.Fatal("registered sink saw no events")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Events after the first operation did not panic")
		}
	}()
	r.Events(func(Event) {})
}

// TestEventsLateRegistrationPanicsPerEntryPoint: every mutating entry
// point starts the core, so each one must arm the late-registration panic.
func TestEventsLateRegistrationPanicsPerEntryPoint(t *testing.T) {
	mustPanic := func(t *testing.T, r *Router) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("Events after start did not panic")
			}
		}()
		r.Events(nil)
	}
	nopSend := func(to bgp.NodeID, u *wire.Update) (int64, error) { return 0, nil }
	cases := []struct {
		name string
		op   func(r *Router, path bgp.PathID)
	}{
		{"Inject", func(r *Router, p bgp.PathID) { r.Inject(0, 0, p) }},
		{"ApplyUpdate", func(r *Router, p bgp.PathID) { _ = r.ApplyUpdate(0, 1, &wire.Update{}) }},
		{"WithdrawExternal", func(r *Router, p bgp.PathID) { r.WithdrawExternal(0, 0, p) }},
		{"Refresh", func(r *Router, p bgp.PathID) { r.Refresh(0, nopSend) }},
		{"Reopen", func(r *Router, p bgp.PathID) { r.Reopen(0) }},
		{"PeerDown", func(r *Router, p bgp.PathID) { r.PeerDown(0, 1) }},
		{"PeerUp", func(r *Router, p bgp.PathID) { r.PeerUp(0, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, rr, paths := star(t)
			var c Counters
			r := Single(sys, protocol.Modified, selection.Options{}).NewRouter(rr, &c)
			tc.op(r, paths[0])
			mustPanic(t, r)
		})
	}
}
