// Package trace collects and renders protocol execution traces: the
// activation events of the formal model (package protocol) and the line
// traces of the message-level simulator (package msgsim), plus summary
// counters used by the command-line tools.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/topology"
)

// Recorder accumulates engine events. It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	sys    *topology.System
	events []protocol.Event
	// BestChanges counts events that changed a best route.
	bestChanges int
	limit       int
}

// NewRecorder returns a recorder for events over sys. limit bounds the
// retained events (0 means 100000); counting continues past the limit.
func NewRecorder(sys *topology.System, limit int) *Recorder {
	if limit <= 0 {
		limit = 100000
	}
	return &Recorder{sys: sys, limit: limit}
}

// Hook returns the callback to register with Engine.Observe.
func (r *Recorder) Hook() func(protocol.Event) {
	return func(ev protocol.Event) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if ev.OldBest != ev.NewBest {
			r.bestChanges++
		}
		if len(r.events) < r.limit {
			r.events = append(r.events, ev)
		}
	}
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// BestChanges returns the number of best-route changes observed.
func (r *Recorder) BestChanges() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bestChanges
}

// Events returns a copy of the retained events.
func (r *Recorder) Events() []protocol.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]protocol.Event(nil), r.events...)
}

// pathName renders a PathID.
func pathName(id bgp.PathID) string {
	if id == bgp.None {
		return "-"
	}
	return fmt.Sprintf("p%d", id)
}

// WriteTo renders the retained events as a table, one line per event that
// changed something, and returns the number of bytes written.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, ev := range r.events {
		if ev.OldBest == ev.NewBest {
			continue
		}
		n, err := fmt.Fprintf(w, "step %-5d %-8s best %-4s -> %-4s possible=%s\n",
			ev.Step, r.sys.Name(ev.Node), pathName(ev.OldBest), pathName(ev.NewBest), ev.Possible)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Summary renders the final routing table of a snapshot.
func Summary(sys *topology.System, snap protocol.Snapshot) string {
	var b strings.Builder
	for u := 0; u < sys.N(); u++ {
		id := snap.Best[u]
		fmt.Fprintf(&b, "%-10s best=%-4s", sys.Name(bgp.NodeID(u)), pathName(id))
		if id != bgp.None {
			p := sys.Exit(id)
			fmt.Fprintf(&b, " exit=%-10s nextAS=%-3d med=%-3d metric=%d",
				sys.Name(p.ExitPoint), p.NextAS, p.MED, sys.Metric(bgp.NodeID(u), p))
		}
		fmt.Fprintf(&b, "  advertises=%s\n", snap.Advertised[u])
	}
	return b.String()
}

// ResultLine renders a one-line result summary.
func ResultLine(policy protocol.Policy, res protocol.Result) string {
	return fmt.Sprintf("policy=%-8s outcome=%-9s steps=%-6d bestChanges=%-6d messages=%d",
		policy, res.Outcome, res.Steps, res.BestChanges, res.Messages)
}

// opPathName renders a PathID in the operational-trace style.
func opPathName(id bgp.PathID) string {
	if id == bgp.None {
		return "(none)"
	}
	return fmt.Sprintf("p%d", id)
}

// renderRoutes formats a prefix-tagged path list for operational traces;
// the prefix tag is shown only in multi-prefix runs.
func renderRoutes(prefixes []uint32, ids []uint32, multi bool) string {
	parts := make([]string, len(ids))
	for i := range ids {
		if multi {
			parts[i] = fmt.Sprintf("%d/p%d", prefixes[i], ids[i])
		} else {
			parts[i] = fmt.Sprintf("p%d", ids[i])
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// NewRouterEventRenderer returns a renderer turning the typed event stream
// of package router into the line-trace format both substrates share (and
// that msgsim has always produced). It returns "" for events that have no
// line form (currently UpdateReceived); callers skip empty lines.
func NewRouterEventRenderer(sys *topology.System, multi bool) func(router.Event) string {
	line := func(t int64, format string, args ...any) string {
		return fmt.Sprintf("t=%-6d %s", t, fmt.Sprintf(format, args...))
	}
	return func(ev router.Event) string {
		switch ev.Kind {
		case router.Injected:
			return line(ev.Time, "%s learns p%d via E-BGP", sys.Name(ev.Node), ev.Path)
		case router.Withdrawn:
			return line(ev.Time, "%s loses p%d via E-BGP", sys.Name(ev.Node), ev.Path)
		case router.BestChanged:
			tag := ""
			if multi {
				tag = fmt.Sprintf("[%d]", ev.Prefix)
			}
			return line(ev.Time, "%s best%s: %s -> %s", sys.Name(ev.Node), tag,
				opPathName(ev.OldBest), opPathName(ev.NewBest))
		case router.MRAIDeferred:
			return line(ev.Time, "%s -> %s update deferred by MRAI until t=%d",
				sys.Name(ev.Node), sys.Name(ev.Peer), ev.ReadyAt)
		case router.UpdateSent:
			annPfx := make([]uint32, len(ev.Update.Announced))
			annIDs := make([]uint32, len(ev.Update.Announced))
			for i, rec := range ev.Update.Announced {
				annPfx[i], annIDs[i] = rec.Prefix, rec.PathID
			}
			wdPfx := make([]uint32, len(ev.Update.Withdrawn))
			wdIDs := make([]uint32, len(ev.Update.Withdrawn))
			for i, w := range ev.Update.Withdrawn {
				wdPfx[i], wdIDs[i] = w.Prefix, w.PathID
			}
			body := fmt.Sprintf("%s -> %s announce=%s withdraw=%s",
				sys.Name(ev.Node), sys.Name(ev.Peer),
				renderRoutes(annPfx, annIDs, multi), renderRoutes(wdPfx, wdIDs, multi))
			if ev.ArriveAt >= 0 {
				body += fmt.Sprintf(" (arrives t=%d)", ev.ArriveAt)
			}
			return line(ev.Time, "%s", body)
		case router.PeerDown:
			return line(ev.Time, "%s session to %s DOWN, %d routes flushed",
				sys.Name(ev.Node), sys.Name(ev.Peer), ev.Flushed)
		case router.PeerUp:
			return line(ev.Time, "%s session to %s UP, re-advertising",
				sys.Name(ev.Node), sys.Name(ev.Peer))
		case router.FaultDrop:
			return line(ev.Time, "%s -> %s FAULT: update dropped",
				sys.Name(ev.Node), sys.Name(ev.Peer))
		case router.FaultDuplicate:
			return line(ev.Time, "%s -> %s FAULT: update duplicated (+%d)",
				sys.Name(ev.Node), sys.Name(ev.Peer), ev.ReadyAt)
		case router.FaultDelay:
			return line(ev.Time, "%s -> %s FAULT: update delayed +%d",
				sys.Name(ev.Node), sys.Name(ev.Peer), ev.ReadyAt)
		case router.FaultReorder:
			return line(ev.Time, "%s -> %s FAULT: update reordered",
				sys.Name(ev.Node), sys.Name(ev.Peer))
		case router.NotificationReceived:
			return line(ev.Time, "%s session to %s closed by peer NOTIFICATION %d/%d",
				sys.Name(ev.Node), sys.Name(ev.Peer), ev.Code, ev.Subcode)
		case router.BadFrame:
			return line(ev.Time, "%s session to %s: malformed frame (NOTIFICATION %d/%d)",
				sys.Name(ev.Node), sys.Name(ev.Peer), ev.Code, ev.Subcode)
		case router.HoldExpired:
			return line(ev.Time, "%s session to %s: hold timer expired",
				sys.Name(ev.Node), sys.Name(ev.Peer))
		case router.RouteLoop:
			return line(ev.Time, "%s dropped looped route %d/p%d from %s (RFC 4456)",
				sys.Name(ev.Node), ev.Prefix, ev.Path, sys.Name(ev.Peer))
		case router.ReopenFailed:
			return line(ev.Time, "%s session to %s failed to reopen, stays DOWN",
				sys.Name(ev.Node), sys.Name(ev.Peer))
		default:
			return ""
		}
	}
}

// CountersLine renders the shared operational counters of one run. Fault
// counters live on the separate FaultsLine so fault-free runs keep their
// historical (golden-tested) line format.
func CountersLine(c router.Snapshot) string {
	return fmt.Sprintf("flaps=%-6d sent=%-6d received=%-6d deferrals=%-4d dropped=%-4d rejected=%d",
		c.Flaps, c.Sent, c.Received, c.Deferrals, c.Dropped, c.Rejected)
}

// FaultsLine renders the fault-injection counters of one run, or "" when
// no fault fired (callers skip the line).
func FaultsLine(c router.Snapshot) string {
	if c.FaultDrops+c.FaultDups+c.FaultDelays+c.FaultReorders+c.Resets == 0 {
		return ""
	}
	return fmt.Sprintf("faults: dropped=%-4d duplicated=%-4d delayed=%-4d reordered=%-4d resets=%-3d flushed=%d",
		c.FaultDrops, c.FaultDups, c.FaultDelays, c.FaultReorders, c.Resets, c.Flushed)
}

// SessionLine renders the session-machinery counters of one run —
// peer NOTIFICATIONs, undecodable frames, hold-timer expiries, RFC 4456
// loop drops and failed session reopens — or "" when none fired (callers skip the line, so the
// historical output of healthy runs is unchanged).
func SessionLine(c router.Snapshot) string {
	if c.Notifs+c.BadFrames+c.HoldExpiries+c.RouteLoops+c.ReopenFailures == 0 {
		return ""
	}
	return fmt.Sprintf("session: notifications=%-4d badframes=%-4d holdexpiries=%-4d routeloops=%-4d reopenfailures=%d",
		c.Notifs, c.BadFrames, c.HoldExpiries, c.RouteLoops, c.ReopenFailures)
}
