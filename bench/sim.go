package main

import (
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/faults"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
)

// rateBlock is how many consecutive churn events (no-ops included) one
// throughput sample of the simulator workloads covers.
const rateBlock = 50

// setupRepeats is how many complete set-ups a run times; setup_s is their
// median, and the last one is the substrate the run measures.
const setupRepeats = 3

func newSim(d *domain, seed int64) *msgsim.Sim {
	return msgsim.NewMulti(d.systems, protocol.Modified, selection.Options{}, msgsim.MustRandomDelay(seed+1, 1, 10))
}

func ledgerClosed(s router.Snapshot) bool { return s.Sent == s.Received+s.Rejected+s.Dropped }

// runSimCold is the warm-up trip at ISP scale: every exit of every prefix
// injected into empty RIBs, run to quiescence. A step is one whole trip on
// a freshly built simulator; an event is one injected E-BGP route.
func runSimCold(c *runCtx) error {
	sz := c.sz
	build := func() (*domain, *msgsim.Sim, error) {
		t0 := time.Now()
		d, err := buildDomain(sz.simFamily, sz.coldPrefixes, c.seed)
		if err != nil {
			return nil, nil, err
		}
		s := newSim(d, c.seed)
		c.setups = append(c.setups, time.Since(t0).Seconds())
		return d, s, nil
	}
	for i := 1; i < setupRepeats; i++ {
		if _, _, err := build(); err != nil {
			return err
		}
	}
	var first uint64
	for trip := 0; c.timed < c.seconds.Seconds(); trip++ {
		d, s, err := build()
		if err != nil {
			return err
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		s.InjectAll()
		res := s.Run(maxSimEvents)
		wall := time.Since(t0).Seconds()
		c.cpu += cpuSeconds() - cpu0
		c.timed += wall
		c.steps = append(c.steps, wall)
		c.rates = append(c.rates, float64(len(d.prefixes)*d.exits)/wall)
		c.events += len(d.prefixes) * d.exits
		c.heapMB = heapLiveMB()

		c.check(res.Quiesced, "trip %d did not quiesce", trip)
		c.check(ledgerClosed(s.Counters()), "trip %d: message ledger did not close: %+v", trip, s.Counters())
		h := stateHash(d.prefixes, d.routers, s.BestFor)
		if trip == 0 {
			first = h
			c.hash("state_hash", h)
			c.hashes["updates_sent"] = fmt.Sprint(res.Messages)
			sample := samplePrefixes(d.prefixes, sz.refSim)
			want, err := referenceHash(d, sample, nil)
			if err != nil {
				return err
			}
			c.check(stateHash(sample, d.routers, s.BestFor) == want,
				"state over %d sampled prefixes differs from a fresh fixed-delay convergence", len(sample))
		} else {
			c.check(h == first, "trip %d reached state %016x, trip 0 reached %016x", trip, h, first)
		}
	}
	return nil
}

// churnSim is a warmed-up simulator ready for single-event churn.
type churnSim struct {
	d  *domain
	s  *msgsim.Sim
	es *eventSource

	msgs, events int // UPDATEs sent and simulator events processed so far
}

// setupChurnSim builds the domain and simulator (with MRAI and the fault
// plan when given) and converges the warm-up injection.
func setupChurnSim(c *runCtx, mrai int64, plan *faults.Plan) (*churnSim, error) {
	d, err := buildDomain(c.sz.simFamily, c.sz.churnPrefixes, c.seed)
	if err != nil {
		return nil, err
	}
	s := newSim(d, c.seed)
	if mrai > 0 {
		s.SetMRAI(mrai)
	}
	if err := s.SetFaults(plan); err != nil {
		return nil, err
	}
	s.InjectAll()
	res := s.Run(maxSimEvents)
	if !res.Quiesced {
		return nil, fmt.Errorf("warm-up did not quiesce")
	}
	es, err := newEventSource(d, c.sz.simRate, c.seed)
	if err != nil {
		return nil, err
	}
	return &churnSim{d: d, s: s, es: es, msgs: res.Messages, events: res.Events}, nil
}

// apply schedules one churn event at the next virtual instant and runs the
// simulator to quiescence. It reports whether any UPDATE was sent.
func (cs *churnSim) apply(ev churn.Event) (quiesced, moved bool) {
	at := cs.s.Now() + 1
	if ev.Withdraw {
		cs.s.WithdrawPrefixAt(at, ev.Prefix, ev.Path)
	} else {
		cs.s.InjectPrefixAt(at, ev.Prefix, ev.Path)
	}
	res := cs.s.Run(maxSimEvents)
	moved = res.Messages != cs.msgs
	cs.msgs, cs.events = res.Messages, res.Events
	return res.Quiesced, moved
}

// runChurn is the steady-state incremental path: churn events applied one
// at a time to a warmed-up simulator, each run to quiescence. A step is
// one event that made some router send an UPDATE (the others cost
// microseconds and are counted, not timed); an event is any churn event.
func runChurn(c *runCtx, mrai int64, plan *faults.Plan) error {
	var cs *churnSim
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if cs, err = setupChurnSim(c, mrai, plan); err != nil {
			return err
		}
		c.setups = append(c.setups, time.Since(t0).Seconds())
	}
	noop, blockWall := 0, 0.0
	cpu0 := cpuSeconds()
	for c.timed < c.seconds.Seconds() {
		ev := cs.es.next()
		t0 := time.Now()
		quiesced, moved := cs.apply(ev)
		wall := time.Since(t0).Seconds()
		c.timed += wall
		c.events++
		if blockWall += wall; c.events%rateBlock == 0 {
			c.rates = append(c.rates, rateBlock/blockWall)
			blockWall = 0
		}
		if moved {
			c.steps = append(c.steps, wall)
		} else {
			noop++
		}
		c.check(quiesced && ledgerClosed(cs.s.Counters()), "event %d did not quiesce with a closed ledger", c.events)
		if c.events == c.sz.hashAt {
			c.hash(fmt.Sprintf("state_hash_at_%d", c.sz.hashAt), stateHash(cs.d.prefixes, cs.d.routers, cs.s.BestFor))
		}
	}
	c.cpu = cpuSeconds() - cpu0
	c.heapMB = heapLiveMB()
	c.note("%d events, %d of them no-ops at the I-BGP level (no UPDATE sent), %d latency samples, tail is p%.0f",
		c.events, noop, len(c.steps), 100*tailPercentile(len(c.steps)))

	sample := samplePrefixes(cs.d.prefixes, c.sz.refSim)
	want, err := referenceHash(cs.d, sample, cs.es.live)
	if err != nil {
		return err
	}
	c.check(stateHash(sample, cs.d.routers, cs.s.BestFor) == want,
		"state after %d events differs from a fresh convergence on the announced paths", c.events)
	return nil
}

func runSimChurn(c *runCtx) error { return runChurn(c, 0, nil) }

// runSimChurnFaults is sim-churn with MRAI 5 and the fault plan: the share
// of traffic that leaves the fast path.
func runSimChurnFaults(c *runCtx) error {
	return runChurn(c, 5, faultPlan(c.seed))
}
