package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/churn"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/speaker"
)

// tcpNet is a started, warmed-up network of TCP speakers.
type tcpNet struct {
	d  *domain
	n  *speaker.Network
	es *eventSource

	applied       []churn.Event // every event handed to the network so far
	startS, coldS float64       // listen+dial+handshake; warm-up convergence
}

// setupTCP builds the mid-family domain, starts one speaker per router on
// loopback under the named codec, and converges the warm-up injection.
// observe, when not nil, is subscribed to the network's event batches.
func setupTCP(c *runCtx, codec string, observe func([]router.Event)) (*tcpNet, error) {
	d, err := buildDomain(c.sz.tcpFamily, c.sz.tcpPrefixes, c.seed)
	if err != nil {
		return nil, err
	}
	cd, err := speaker.CodecByName(codec)
	if err != nil {
		return nil, err
	}
	n, err := speaker.NewMulti(d.systems, protocol.Modified, selection.Options{})
	if err != nil {
		return nil, err
	}
	n.SetCodec(cd)
	if observe != nil {
		n.SubscribeBatch(observe)
	}
	t0 := time.Now()
	if err := n.Start(); err != nil {
		return nil, fmt.Errorf("start speakers: %w", err)
	}
	startS := time.Since(t0).Seconds()
	t1 := time.Now()
	n.InjectAll()
	if !n.WaitQuiesce(c.sz.quiesceBudget, c.sz.settle) {
		n.Stop()
		return nil, fmt.Errorf("warm-up did not quiesce within %v", c.sz.quiesceBudget)
	}
	coldS := time.Since(t1).Seconds() - c.sz.settle.Seconds()
	es, err := newEventSource(d, c.sz.tcpRate, c.seed)
	if err != nil {
		n.Stop()
		return nil, err
	}
	return &tcpNet{d: d, n: n, es: es, startS: startS, coldS: coldS}, nil
}

// round applies one stream round back to back and waits for quiescence.
// The returned latency has the settle window subtracted; WaitQuiesce polls
// every 2 ms, which quantises it.
func (t *tcpNet) round(c *runCtx) (events int, latency float64, quiesced bool) {
	evs := t.es.round()
	t.applied = append(t.applied, evs...)
	t0 := time.Now()
	for _, ev := range evs {
		if ev.Withdraw {
			t.n.WithdrawPrefix(ev.Prefix, ev.Path)
		} else {
			t.n.InjectPrefix(ev.Prefix, ev.Path)
		}
	}
	quiesced = t.n.WaitQuiesce(c.sz.quiesceBudget, c.sz.settle)
	return len(evs), time.Since(t0).Seconds() - c.sz.settle.Seconds(), quiesced
}

// checkState compares the network's state over a sample of prefixes with
// a fresh simulator convergence on the announced paths: the TCP substrate,
// whichever codec it runs, and msgsim must agree.
func (t *tcpNet) checkState(c *runCtx) error {
	sample := samplePrefixes(t.d.prefixes, c.sz.refTCP)
	want, err := referenceHash(t.d, sample, t.es.live)
	if err != nil {
		return err
	}
	c.check(stateHash(sample, t.d.routers, t.n.BestFor) == want,
		"TCP state over %d sampled prefixes differs from a fresh msgsim convergence on the announced paths", len(sample))
	return nil
}

// runTCP is the real transport: goroutines, channels, loopback sockets and
// inbox-drain coalescing. A step is one round of churn events applied back
// to back and converged; an event is one churn event.
func runTCP(c *runCtx, codec string) error {
	var t *tcpNet
	for i := 0; i < setupRepeats; i++ {
		if t != nil {
			t.n.Stop()
		}
		t0 := time.Now()
		var err error
		if t, err = setupTCP(c, codec, nil); err != nil {
			return err
		}
		c.setups = append(c.setups, time.Since(t0).Seconds())
	}
	defer t.n.Stop()

	cpu0 := cpuSeconds()
	for round := 0; c.timed < c.seconds.Seconds(); round++ {
		events, latency, quiesced := t.round(c)
		c.check(quiesced && ledgerClosed(t.n.Counters()), "round %d did not quiesce with a closed ledger within %v", round, c.sz.quiesceBudget)
		c.events += events
		c.timed += latency
		c.steps = append(c.steps, latency)
		c.rates = append(c.rates, float64(events)/latency)
		if round+1 == c.sz.hashRound {
			c.hash(fmt.Sprintf("state_hash_at_round_%d", c.sz.hashRound), stateHash(t.d.prefixes, t.d.routers, t.n.BestFor))
		}
	}
	c.cpu = cpuSeconds() - cpu0
	c.heapMB = heapLiveMB()
	snap := t.n.Counters()
	c.check(snap.BadFrames == 0 && snap.Dropped == 0, "loopback sessions lost traffic: %d bad frames, %d dropped", snap.BadFrames, snap.Dropped)
	c.note("%d rounds, %d events, %d goroutines, tail is p%.0f; latencies are quantised by WaitQuiesce's 2 ms poll",
		len(c.steps), c.events, runtime.NumGoroutine(), 100*tailPercentile(len(c.steps)))
	return t.checkState(c)
}

func runTCPPrivate(c *runCtx) error { return runTCP(c, "private") }

// runTCPBGP4 takes byte-for-byte the inputs of tcp-private; the codec is
// the only difference.
func runTCPBGP4(c *runCtx) error { return runTCP(c, "bgp4") }
