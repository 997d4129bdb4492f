package router_test

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/speaker"
)

// TestFaultEventsPrecedeTheirUpdate: a fault fate is booked inside the
// send it modifies, so on either substrate a FaultDelay or FaultDuplicate
// to peer w reaches the sinks in the same round as — and immediately
// before — the UpdateSent to w it belongs to, behind the round's earlier
// core events. Every message of the plan is delayed and half are
// duplicated, so each refresh round exercises the path.
func TestFaultEventsPrecedeTheirUpdate(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Delay: 1, Duplicate: 0.5, MaxExtraDelay: 5}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, sink func([]router.Event))
	}{
		{"sim", func(t *testing.T, sink func([]router.Event)) {
			s := msgsim.New(figures.Fig1a().Sys, protocol.Modified, selection.Options{}, msgsim.ConstantDelay(10))
			if err := s.SetFaults(plan); err != nil {
				t.Fatal(err)
			}
			s.ObserveEventsBatch(sink)
			s.InjectAll()
			if res := s.Run(0); !res.Quiesced {
				t.Fatalf("sim did not quiesce: %+v", res)
			}
		}},
		{"tcp", func(t *testing.T, sink func([]router.Event)) {
			n := speaker.New(figures.Fig1a().Sys, protocol.Modified, selection.Options{})
			if err := n.SetFaults(plan); err != nil {
				t.Fatal(err)
			}
			n.SubscribeBatch(sink)
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			n.InjectAll()
			ok := n.WaitQuiesce(quiesceTimeout, settle)
			n.Stop()
			if !ok {
				t.Fatalf("TCP network did not quiesce (counters %+v)", n.Counters())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Sinks are serialised by the substrate; each node's events keep
			// their emission order within the merged stream.
			perNode := map[bgp.NodeID][]router.Event{}
			tc.run(t, func(evs []router.Event) {
				for _, ev := range evs {
					ev.Update = nil
					perNode[ev.Node] = append(perNode[ev.Node], ev)
				}
			})
			faulted := 0
			for node, evs := range perNode {
				for i, ev := range evs {
					if ev.Kind != router.FaultDelay && ev.Kind != router.FaultDuplicate {
						continue
					}
					faulted++
					j := i + 1
					for j < len(evs) && evs[j].Peer == ev.Peer &&
						(evs[j].Kind == router.FaultDelay || evs[j].Kind == router.FaultDuplicate) {
						j++
					}
					if j == len(evs) || evs[j].Kind != router.UpdateSent || evs[j].Peer != ev.Peer {
						next := "end of stream"
						if j < len(evs) {
							next = evs[j].Kind.String()
						}
						t.Fatalf("node %d: %v to %d at t=%d is followed by %s, want the UpdateSent to %d",
							node, ev.Kind, ev.Peer, ev.Time, next, ev.Peer)
					}
				}
			}
			if faulted == 0 {
				t.Fatal("the plan booked no delay or duplicate fate")
			}
		})
	}
}
