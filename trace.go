package ibgp

import (
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Tracing helpers (package trace).
type (
	// TraceRecorder accumulates engine events for rendering.
	TraceRecorder = trace.Recorder
	// Event is one engine activation event.
	Event = protocol.Event
)

// NewTraceRecorder returns a recorder whose Hook can be registered with
// Engine.Observe; limit bounds retained events (0 = 100000).
func NewTraceRecorder(sys *System, limit int) *TraceRecorder {
	return trace.NewRecorder(sys, limit)
}

// Summary renders the routing table of a snapshot as text.
func Summary(sys *System, snap Snapshot) string { return trace.Summary(sys, snap) }

// NewRouterEventRenderer returns the shared line renderer for the typed
// operational event stream; both substrates' traces use it. It returns ""
// for events with no line form.
func NewRouterEventRenderer(sys *System, multi bool) func(RouterEvent) string {
	return trace.NewRouterEventRenderer(sys, multi)
}

// CountersLine renders the shared operational counters of one run.
func CountersLine(c OperationalCounters) string { return trace.CountersLine(c) }

// FaultsLine renders the fault-injection counters of one run, or "" when
// no fault fired.
func FaultsLine(c OperationalCounters) string { return trace.FaultsLine(c) }

// SessionLine renders the session-machinery counters of one run (peer
// NOTIFICATIONs, bad frames, hold-timer expiries, RFC 4456 loop drops,
// failed session reopens), or "" when none fired.
func SessionLine(c OperationalCounters) string { return trace.SessionLine(c) }
