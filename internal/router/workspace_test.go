package router

import (
	"bytes"
	"container/heap"
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/wire"
)

// wsEvent is one scheduled occurrence of a wsNet run: an E-BGP change, a
// message delivery, a flush (MRAI reopen or drop retry), or one end of a
// session going down or up.
type wsEvent struct {
	at, seq  int64
	kind     int // wsInject, wsWithdraw, wsDeliver, wsFlush, wsPeerDown, wsPeerUp
	from, to bgp.NodeID
	prefix   uint32
	path     bgp.PathID
	payload  []byte
	epoch    int
}

const (
	wsInject = iota
	wsWithdraw
	wsDeliver
	wsFlush
	wsPeerDown
	wsPeerUp
)

type wsQueue []wsEvent

func (q wsQueue) Len() int { return len(q) }
func (q wsQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q wsQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *wsQueue) Push(x any)   { *q = append(*q, x.(wsEvent)) }
func (q *wsQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// wsNet is a minimal single-threaded transport over a domain's routers:
// a (time, seq)-ordered calendar, FIFO per session unless a Reorder fate
// exempts a message, fault fates booked by the core, drop retries one
// DropRTO later, MRAI reopens at their ReadyAt, and session resets that
// lose the messages in flight. Like msgsim, a router
// drains its same-instant events before one refresh. It records every
// encoded UPDATE it carries and every core event, so two runs over the
// same inputs can be compared byte for byte.
type wsNet struct {
	dom     *Domain
	rts     []*Router
	q       wsQueue
	seq     int64
	now     int64
	sent    map[[2]bgp.NodeID]int
	lastArr map[[2]bgp.NodeID]int64
	epoch   map[[2]bgp.NodeID]int
	down    map[[2]bgp.NodeID]bool

	wire   bytes.Buffer // every UPDATE sent: header line, then its bytes
	events bytes.Buffer // every core event, its Update encoded
}

func newWSNet(d *Domain, shared bool, mrai int64) *wsNet {
	n := &wsNet{dom: d, sent: map[[2]bgp.NodeID]int{}, lastArr: map[[2]bgp.NodeID]int64{},
		epoch: map[[2]bgp.NodeID]int{}, down: map[[2]bgp.NodeID]bool{}}
	var c Counters
	if shared {
		n.rts = d.NewRouters(&c)
	} else {
		for u := 0; u < d.base.N(); u++ {
			n.rts = append(n.rts, d.NewRouter(bgp.NodeID(u), &c))
		}
	}
	for _, rt := range n.rts {
		rt.SetMRAI(mrai)
		rt.Events(n.record)
	}
	return n
}

func (n *wsNet) record(ev Event) {
	fmt.Fprintf(&n.events, "%v t=%d n=%d p=%d pfx=%d path=%d best=%d>%d ready=%d arrive=%d flushed=%d",
		ev.Kind, ev.Time, ev.Node, ev.Peer, ev.Prefix, ev.Path, ev.OldBest, ev.NewBest, ev.ReadyAt, ev.ArriveAt, ev.Flushed)
	if ev.Update != nil {
		b, err := wire.AppendUpdate(nil, ev.Update)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&n.events, " upd=%x", b)
	}
	n.events.WriteByte('\n')
}

func (n *wsNet) push(e wsEvent) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.q, e)
}

func (n *wsNet) send(u bgp.NodeID) SendFunc {
	return func(w bgp.NodeID, upd *wire.Update) (int64, error) {
		key := [2]bgp.NodeID{u, w}
		seq := n.sent[key]
		n.sent[key]++
		fate, err := n.rts[u].BookFate(n.now, w, seq)
		if err != nil {
			n.push(wsEvent{at: n.now + DropRTO, kind: wsFlush, from: u, to: w})
			return -1, err
		}
		data, err := wire.AppendUpdate(nil, upd)
		if err != nil {
			panic(err)
		}
		at := n.now + 1 + int64(int(u)*31+int(w)*17+seq)%7 + fate.ExtraDelay
		if !fate.Reorder {
			at = max(at, n.lastArr[key])
		}
		n.lastArr[key] = max(n.lastArr[key], at)
		fmt.Fprintf(&n.wire, "%d %d->%d at %d\n%x\n", n.now, u, w, at, data)
		msg := wsEvent{at: at, kind: wsDeliver, from: u, to: w, payload: data, epoch: n.epoch[key]}
		n.push(msg)
		if fate.Duplicate {
			msg.at = max(at+fate.DupDelay, n.lastArr[key])
			n.lastArr[key] = msg.at
			n.push(msg)
		}
		return at, nil
	}
}

func (n *wsNet) target(e *wsEvent) bgp.NodeID {
	switch e.kind {
	case wsDeliver:
		return e.to
	case wsFlush, wsPeerDown, wsPeerUp:
		return e.from
	default:
		return n.dom.System(e.prefix).Exit(e.path).ExitPoint
	}
}

func (n *wsNet) apply(e *wsEvent) {
	switch e.kind {
	case wsInject:
		n.rts[n.target(e)].Inject(n.now, e.prefix, e.path)
	case wsWithdraw:
		n.rts[n.target(e)].WithdrawExternal(n.now, e.prefix, e.path)
	case wsDeliver:
		if key := [2]bgp.NodeID{e.from, e.to}; n.down[key] || e.epoch != n.epoch[key] {
			return // lost with the session
		}
		v, _, err := wire.DecodeView(e.payload)
		if err != nil {
			panic(err)
		}
		if err := n.rts[e.to].ApplyUpdateView(n.now, e.from, v); err != nil {
			panic(err)
		}
	case wsFlush:
		n.rts[e.from].Reopen(e.to)
	case wsPeerDown:
		if out, back := [2]bgp.NodeID{e.from, e.to}, [2]bgp.NodeID{e.to, e.from}; !n.down[out] {
			for _, k := range [][2]bgp.NodeID{out, back} {
				n.down[k], n.lastArr[k] = true, 0
				n.epoch[k]++
			}
		}
		n.rts[e.from].PeerDown(n.now, e.to)
	case wsPeerUp:
		n.down[[2]bgp.NodeID{e.from, e.to}] = false
		n.down[[2]bgp.NodeID{e.to, e.from}] = false
		n.rts[e.from].PeerUp(n.now, e.to)
	}
}

// run processes at most maxEvents events and reports whether the calendar
// drained.
func (n *wsNet) run(maxEvents int) bool {
	sends := make([]SendFunc, len(n.rts))
	for u := range sends {
		sends[u] = n.send(bgp.NodeID(u))
	}
	for done := 0; n.q.Len() > 0 && done < maxEvents; {
		e := heap.Pop(&n.q).(wsEvent)
		n.now = e.at
		who := n.target(&e)
		n.apply(&e)
		done++
		for n.q.Len() > 0 && n.q[0].at == n.now && n.target(&n.q[0]) == who {
			e := heap.Pop(&n.q).(wsEvent)
			n.apply(&e)
			done++
		}
		for _, d := range n.rts[who].Refresh(n.now, sends[who]) {
			n.push(wsEvent{at: d.ReadyAt, kind: wsFlush, from: who, to: d.To})
		}
	}
	return n.q.Len() == 0
}

// wsScenario is one workload for the shared/private comparison: a domain,
// an MRAI interval and the E-BGP schedule to drive it with.
type wsScenario struct {
	name     string
	dom      *Domain
	mrai     int64
	schedule func(n *wsNet)
	// quiesce is whether the run must drain within the event cap (Classic
	// on an oscillating figure never does).
	quiesce bool
}

// injectAll schedules every exit of every prefix at time 0.
func injectAll(n *wsNet) {
	for _, p := range n.dom.prefixes {
		for _, ex := range n.dom.System(p).Exits() {
			n.push(wsEvent{kind: wsInject, prefix: p, path: ex.ID})
		}
	}
}

// reset schedules a reset of the session u-w: both ends go down at down
// and come back at up.
func reset(n *wsNet, u, w bgp.NodeID, down, up int64) {
	for _, end := range [][2]bgp.NodeID{{u, w}, {w, u}} {
		n.push(wsEvent{at: down, kind: wsPeerDown, from: end[0], to: end[1]})
		n.push(wsEvent{at: up, kind: wsPeerUp, from: end[0], to: end[1]})
	}
}

// churn schedules a withdrawal and re-injection of one exit per prefix.
func churn(n *wsNet, id bgp.PathID, down, up int64) {
	for _, p := range n.dom.prefixes {
		n.push(wsEvent{at: down, kind: wsWithdraw, prefix: p, path: id})
		n.push(wsEvent{at: up, kind: wsInject, prefix: p, path: id})
	}
}

func domainOf(t *testing.T, spec topogen.Spec, seed int64, policy protocol.Policy) *Domain {
	t.Helper()
	gen, err := topogen.Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	built, err := topology.BuildSpecAll(gen)
	if err != nil {
		t.Fatal(err)
	}
	systems := map[uint32]*topology.System{}
	for i, sys := range built {
		systems[uint32(i)] = sys
	}
	d, err := NewDomain(systems, policy, selection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func wsScenarios(t *testing.T) []wsScenario {
	var out []wsScenario
	for _, entry := range figures.All() {
		for _, policy := range []protocol.Policy{protocol.Classic, protocol.Modified} {
			out = append(out, wsScenario{
				name: fmt.Sprintf("fig%s/%v", entry.Name, policy),
				dom:  Single(entry.Build().Sys, policy, selection.Options{}),
				schedule: func(n *wsNet) {
					injectAll(n)
					churn(n, 0, 60, 120)
				},
				quiesce: policy == protocol.Modified,
			})
		}
	}

	// Seventy exits: the RIB's path sets span two 64-bit words.
	wide := topogen.Small()
	wide.Exits, wide.Prefixes = 70, 2
	out = append(out, wsScenario{
		name: "seventy-exits",
		dom:  domainOf(t, wide, 4, protocol.Modified),
		schedule: func(n *wsNet) {
			injectAll(n)
			for _, id := range []bgp.PathID{3, 66, 69} {
				churn(n, id, 40+int64(id), 400)
			}
			churn(n, 65, 90, 200)
		},
		quiesce: true,
	})

	// MRAI, a fault plan and a session reset: owed diffs carry across
	// rounds (MRAI-gated or dropped) and down peers' slots are skipped
	// while other routers' refreshes reuse the shared slots.
	small := topogen.Small()
	small.Prefixes = 4
	faulted := domainOf(t, small, 1, protocol.Modified)
	if err := faulted.SetFaults(&faults.Plan{Seed: 3, Drop: 0.15, Duplicate: 0.15, Reorder: 0.15,
		Delay: 0.3, MaxExtraDelay: 9, Horizon: 300}); err != nil {
		t.Fatal(err)
	}
	out = append(out, wsScenario{
		name: "small-4prefix-mrai-faults",
		dom:  faulted,
		mrai: 5,
		schedule: func(n *wsNet) {
			injectAll(n)
			churn(n, 0, 20, 45)
			churn(n, 2, 33, 70)
			reset(n, 0, n.dom.base.Peers(0)[0], 25, 60)
		},
		quiesce: true,
	})
	return out
}

// TestSharedWorkspaceChangesNoByte: routers built over one shared
// workspace (NewRouters) send byte-identical UPDATE streams and emit
// identical event streams to routers that each own a workspace
// (NewRouter), on every figure, on a two-word path-set domain, and under
// MRAI with drops, duplicates, reorders, delays and a session reset.
func TestSharedWorkspaceChangesNoByte(t *testing.T) {
	for _, sc := range wsScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			var nets [2]*wsNet
			for i, shared := range []bool{false, true} {
				n := newWSNet(sc.dom, shared, sc.mrai)
				sc.schedule(n)
				if drained := n.run(20000); sc.quiesce && !drained {
					t.Fatalf("shared=%v: did not quiesce", shared)
				}
				nets[i] = n
			}
			private, shared := nets[0], nets[1]
			if private.wire.Len() == 0 {
				t.Fatal("no UPDATE was sent; the comparison covers nothing")
			}
			if !bytes.Equal(private.wire.Bytes(), shared.wire.Bytes()) {
				t.Errorf("UPDATE streams differ: %d bytes private, %d shared", private.wire.Len(), shared.wire.Len())
			}
			if !bytes.Equal(private.events.Bytes(), shared.events.Bytes()) {
				t.Errorf("event streams differ: %d bytes private, %d shared", private.events.Len(), shared.events.Len())
			}
			if sc.mrai > 0 {
				for _, kind := range []EventKind{MRAIDeferred, FaultDrop, FaultDuplicate, FaultReorder, FaultDelay, PeerDown, PeerUp} {
					if !bytes.Contains(shared.events.Bytes(), []byte(kind.String()+" ")) {
						t.Errorf("no %v event: the scenario misses a path it is meant to cover", kind)
					}
				}
			}
		})
	}
}

// TestNewRoutersShareOneWorkspace: every router of one NewRouters call
// holds the same workspace; a second call and NewRouter build fresh ones.
func TestNewRoutersShareOneWorkspace(t *testing.T) {
	dom := Single(figures.Fig13().Sys, protocol.Modified, selection.Options{})
	var c Counters
	rts := dom.NewRouters(&c)
	if len(rts) != dom.Base().N() {
		t.Fatalf("NewRouters built %d routers, want %d", len(rts), dom.Base().N())
	}
	ws := rts[0].ws
	for u, rt := range rts {
		if rt.ID() != bgp.NodeID(u) {
			t.Errorf("router %d has id %d", u, rt.ID())
		}
		if rt.ws != ws {
			t.Errorf("router %d has its own workspace", u)
		}
	}
	if other := dom.NewRouters(&c); other[0].ws == ws {
		t.Error("two NewRouters calls share a workspace")
	}
	if a, b := dom.NewRouter(0, &c), dom.NewRouter(1, &c); a.ws == b.ws || a.ws == ws {
		t.Error("NewRouter reuses a workspace")
	}
}
