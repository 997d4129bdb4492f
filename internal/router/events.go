package router

import (
	"sync/atomic"

	"repro/internal/bgp"
	"repro/internal/wire"
)

// EventKind classifies a typed operational event.
type EventKind uint8

const (
	// BestChanged fires when a refresh moves a router's best route for one
	// prefix (a "flap").
	BestChanged EventKind = iota
	// UpdateSent fires after the transport accepted one coalesced UPDATE.
	UpdateSent
	// UpdateReceived fires after an inbound UPDATE was applied.
	UpdateReceived
	// MRAIDeferred fires when an owed UPDATE is held back by a closed MRAI
	// window; ReadyAt carries the reopen time.
	MRAIDeferred
	// Injected fires on an E-BGP route injection at this router.
	Injected
	// Withdrawn fires on an E-BGP route withdrawal at this router.
	Withdrawn
	// PeerDown fires when a session dies: every route learned from Peer
	// has been flushed (RFC 4271 §8.2) and Flushed counts them.
	PeerDown
	// PeerUp fires when a session re-establishes; the next refresh
	// re-advertises the full target set to Peer.
	PeerUp
	// FaultDrop fires when the fault layer loses an UPDATE in transit
	// (Node -> Peer). The message stays counted in Sent and is added to
	// Dropped.
	FaultDrop
	// FaultDuplicate fires when the fault layer delivers an UPDATE twice.
	FaultDuplicate
	// FaultDelay fires when the fault layer adds transit delay to an
	// UPDATE; ReadyAt carries the extra delay.
	FaultDelay
	// FaultReorder fires when the fault layer lets an UPDATE overtake
	// earlier messages on its session (msgsim only).
	FaultReorder
	// NotificationReceived fires when a peer closes the session with a
	// NOTIFICATION; Code and Subcode carry the peer's stated reason.
	NotificationReceived
	// BadFrame fires when an inbound message fails to decode (corrupt
	// marker, bad length or type, malformed attributes) and the session is
	// torn down; under a codec that supports it, a NOTIFICATION with Code
	// and Subcode is sent back first.
	BadFrame
	// HoldExpired fires when the negotiated hold time elapses with no
	// message from the peer (RFC 4271 §6.5); the session sends a
	// NOTIFICATION and tears down.
	HoldExpired
	// RouteLoop fires once per announced route dropped by RFC 4456 §8
	// reflection loop detection (own ORIGINATOR_ID or cluster ID seen).
	RouteLoop
	// ReopenFailed fires when a reset session (Node - Peer) could not be
	// re-established after its downtime; the session stays down.
	ReopenFailed
)

// kindNames indexes the kinds' names by value.
var kindNames = [...]string{
	BestChanged:          "BestChanged",
	UpdateSent:           "UpdateSent",
	UpdateReceived:       "UpdateReceived",
	MRAIDeferred:         "MRAIDeferred",
	Injected:             "Injected",
	Withdrawn:            "Withdrawn",
	PeerDown:             "PeerDown",
	PeerUp:               "PeerUp",
	FaultDrop:            "FaultDrop",
	FaultDuplicate:       "FaultDuplicate",
	FaultDelay:           "FaultDelay",
	FaultReorder:         "FaultReorder",
	NotificationReceived: "NotificationReceived",
	BadFrame:             "BadFrame",
	HoldExpired:          "HoldExpired",
	RouteLoop:            "RouteLoop",
	ReopenFailed:         "ReopenFailed",
}

// String names the kind for logs and renderers.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Unknown"
}

// Event is one typed occurrence in a router core's life, replacing the old
// ad-hoc observer strings. Only the fields relevant to Kind are set. The
// Update pointer references the live message; sinks that retain events
// beyond the callback must copy it.
type Event struct {
	Kind EventKind
	// Time is the substrate clock when the event fired: virtual ticks in
	// the discrete-event simulator, milliseconds since start on TCP.
	Time int64
	// Node is the router the event happened at.
	Node bgp.NodeID
	// Peer is the session peer (UpdateSent, UpdateReceived, MRAIDeferred).
	Peer bgp.NodeID
	// Prefix tags BestChanged, Injected and Withdrawn events.
	Prefix uint32
	// Path is the injected or withdrawn E-BGP path.
	Path bgp.PathID
	// OldBest and NewBest frame a BestChanged event.
	OldBest, NewBest bgp.PathID
	// Update is the wire message of UpdateSent / UpdateReceived.
	Update *wire.Update
	// ReadyAt is when the MRAI window reopens (MRAIDeferred) or the extra
	// transit delay of a FaultDelay.
	ReadyAt int64
	// Flushed counts the routes deleted by a PeerDown across all prefixes.
	Flushed int
	// ArriveAt is the transport-reported delivery time of an UpdateSent
	// event; negative when the transport cannot know it (TCP).
	ArriveAt int64
	// Code and Subcode carry the BGP NOTIFICATION error of a
	// NotificationReceived, BadFrame or HoldExpired event.
	Code, Subcode uint8
}

// Counters aggregates the operational meters of one substrate. A single
// Counters value is shared by every router of a network or simulation, so
// both substrates surface identical totals. Fields are atomic because the
// TCP substrate updates them from many speaker goroutines and quiescence
// probes read them concurrently.
type Counters struct {
	// Flaps counts best-route changes across all routers and prefixes.
	Flaps atomic.Int64
	// Sent counts UPDATEs handed to the transport, delivered or not; a
	// message whose send fails stays in Sent and is also counted Dropped.
	Sent atomic.Int64
	// Received counts UPDATEs fully applied.
	Received atomic.Int64
	// Deferrals counts MRAI-gated send postponements.
	Deferrals atomic.Int64
	// Dropped counts UPDATEs lost in transit: sends a transport refused
	// (dead session), messages the fault layer dropped, and in-flight
	// messages lost to a session reset. Sent is never decremented for
	// them, so quiescence accounting is Sent == Received+Rejected+Dropped.
	Dropped atomic.Int64
	// Rejected counts inbound UPDATEs failing decode-side validation.
	Rejected atomic.Int64
	// Resets counts session reset events (one per session, not per end).
	Resets atomic.Int64
	// Flushed counts routes deleted by PeerDown flushes across all
	// routers and prefixes.
	Flushed atomic.Int64
	// FaultDrops, FaultDups, FaultDelays and FaultReorders count
	// per-message fault-layer actions; FaultDrops is a subset of Dropped.
	FaultDrops    atomic.Int64
	FaultDups     atomic.Int64
	FaultDelays   atomic.Int64
	FaultReorders atomic.Int64
	// Notifs counts sessions closed by a peer's NOTIFICATION.
	Notifs atomic.Int64
	// BadFrames counts inbound messages that failed to decode (corruption,
	// as opposed to clean EOF or teardown).
	BadFrames atomic.Int64
	// HoldExpiries counts sessions torn down by hold-timer expiry.
	HoldExpiries atomic.Int64
	// RouteLoops counts announced routes dropped by RFC 4456 reflection
	// loop detection.
	RouteLoops atomic.Int64
	// ReopenFailures counts reset sessions that failed to re-establish
	// after their downtime and stayed down.
	ReopenFailures atomic.Int64
}

// Snapshot is a plain-value copy of Counters at one instant.
type Snapshot struct {
	Flaps          int64
	Sent           int64
	Received       int64
	Deferrals      int64
	Dropped        int64
	Rejected       int64
	Resets         int64
	Flushed        int64
	FaultDrops     int64
	FaultDups      int64
	FaultDelays    int64
	FaultReorders  int64
	Notifs         int64
	BadFrames      int64
	HoldExpiries   int64
	RouteLoops     int64
	ReopenFailures int64
}

// Outstanding is the quiescence ledger: the UPDATEs handed to the transport
// and not yet applied, rejected or lost. At rest it must be zero — every
// message accounted for.
func (s Snapshot) Outstanding() int64 { return s.Sent - (s.Received + s.Rejected + s.Dropped) }

// Snapshot reads every counter once.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Flaps:          c.Flaps.Load(),
		Sent:           c.Sent.Load(),
		Received:       c.Received.Load(),
		Deferrals:      c.Deferrals.Load(),
		Dropped:        c.Dropped.Load(),
		Rejected:       c.Rejected.Load(),
		Resets:         c.Resets.Load(),
		Flushed:        c.Flushed.Load(),
		FaultDrops:     c.FaultDrops.Load(),
		FaultDups:      c.FaultDups.Load(),
		FaultDelays:    c.FaultDelays.Load(),
		FaultReorders:  c.FaultReorders.Load(),
		Notifs:         c.Notifs.Load(),
		BadFrames:      c.BadFrames.Load(),
		HoldExpiries:   c.HoldExpiries.Load(),
		RouteLoops:     c.RouteLoops.Load(),
		ReopenFailures: c.ReopenFailures.Load(),
	}
}
