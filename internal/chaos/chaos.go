// Package chaos checks the fault-horizon invariants of the modified
// protocol: under any fault schedule that eventually ceases — drops,
// duplicates, reorders, delays, session resets — I-BGP must settle in a
// stable solution of the paper's model (§4's fixed point, which Lemma 7.4
// makes unique under the modified protocol), withdrawn routes must be
// flushed everywhere (RFC 4271 §8.2 / Lemma 7.6), the resulting forwarding
// plane must be loop-free, and the transport's quiescence ledger must
// balance. It runs the same check on both substrates: the discrete-event
// simulator (deterministic, fit for campaigns) and the TCP speakers (wall
// clock, fit for smoke tests).
//
// FixedPoint and Grade are the repo's one oracle: the churn soak and the
// scale campaign grade their settled states through them too, and none of
// them runs a second simulation to do so.
package chaos

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/forwarding"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/speaker"
	"repro/internal/topology"
)

// Config parameterises one invariant check.
type Config struct {
	// Policy is the advertisement policy under test (default Modified).
	Policy protocol.Policy
	// Opts are the route-selection options, shared with the model the
	// settled state is graded against.
	Opts selection.Options
	// Plan is the fault schedule; nil checks the fault-free baseline.
	Plan *faults.Plan
	// DelaySeed seeds the msgsim random per-message delay model; 0 uses
	// constant unit delay.
	DelaySeed int64
	// MaxDelay bounds the random delays when DelaySeed != 0 (default 10).
	MaxDelay int64
	// MaxEvents bounds the msgsim run (default 200000).
	MaxEvents int
	// Withdraw lists E-BGP routes withdrawn mid-run, exercising the
	// flush-everywhere invariant under faults; WithdrawAt is the virtual
	// tick (msgsim) or millisecond (TCP) of the withdrawal.
	Withdraw   []bgp.PathID
	WithdrawAt int64
	// Timeout and Settle drive speaker.WaitQuiesce on the TCP substrate
	// (defaults 15s / 150ms).
	Timeout, Settle time.Duration
}

func (c Config) fill() Config {
	if c.MaxEvents <= 0 {
		c.MaxEvents = 200000
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 10
	}
	if c.Timeout <= 0 {
		c.Timeout = 15 * time.Second
	}
	if c.Settle <= 0 {
		c.Settle = 150 * time.Millisecond
	}
	return c
}

// Verdict is the oracle's judgement of one settled state: the five
// invariants, the per-prefix ones carried as the evidence a harness needs to
// report a failure.
type Verdict struct {
	// Quiesced: the run reached rest within its budget.
	Quiesced bool
	// LedgerClosed: Sent == Received + Rejected + Dropped at rest — every
	// message handed to the transport is accounted for.
	LedgerClosed bool
	// Diverged holds the prefixes whose settled state is not a stable
	// solution of the model (FixedPoint), each with the first router whose
	// best route or advertisement is off the model's induced one.
	Diverged map[uint32]bgp.NodeID
	// Stale holds the prefixes with unflushed routes, each with the
	// candidates every router retains outside the live set.
	Stale map[uint32][]bgp.PathSet
	// Looping holds the prefixes whose final configuration implies a
	// forwarding plane with a loop (Lemmas 7.6/7.7).
	Looping map[uint32]bool
}

// Reconverged, WithdrawnFlushed (vacuously true without withdrawals) and
// LoopFree report the per-prefix invariants over the whole domain.
func (v Verdict) Reconverged() bool      { return len(v.Diverged) == 0 }
func (v Verdict) WithdrawnFlushed() bool { return len(v.Stale) == 0 }
func (v Verdict) LoopFree() bool         { return len(v.Looping) == 0 }

// OK reports whether every invariant held.
func (v Verdict) OK() bool {
	return v.Quiesced && v.Reconverged() && v.WithdrawnFlushed() && v.LoopFree() && v.LedgerClosed
}

// Report is the outcome of one check.
type Report struct {
	Verdict
	// Best is the final best path per router; Reference the model's best
	// path per router, induced by the routers' final advertisements.
	Best, Reference []bgp.PathID
	// Counters snapshots the shared operational counters at the end.
	Counters router.Snapshot
}

// explain renders the first violated invariant, or "ok".
func (r Report) explain() string {
	switch {
	case !r.Quiesced:
		return fmt.Sprintf("did not quiesce: %d messages outstanding", r.Counters.Outstanding())
	case !r.Reconverged():
		u := r.Diverged[0]
		return fmt.Sprintf("not a stable solution: router %d best p%d, model p%d", u, r.Best[u], r.Reference[u])
	case !r.WithdrawnFlushed():
		return "a withdrawn route survives in some candidate set"
	case !r.LoopFree():
		return fmt.Sprintf("forwarding plane has a loop under %v", r.Best)
	case !r.LedgerClosed:
		return fmt.Sprintf("ledger broken: sent=%d received=%d rejected=%d dropped=%d",
			r.Counters.Sent, r.Counters.Received, r.Counters.Rejected, r.Counters.Dropped)
	default:
		return "ok"
	}
}

// Vectors collects one per-(prefix, router) quantity of a settled substrate
// — its best paths, candidate sets or advertisements — in the shape Grade
// judges.
func Vectors[T any](systems map[uint32]*topology.System, at func(uint32, bgp.NodeID) T) map[uint32][]T {
	m := make(map[uint32][]T, len(systems))
	for prefix, sys := range systems {
		v := make([]T, sys.N())
		for u := range v {
			v[u] = at(prefix, bgp.NodeID(u))
		}
		m[prefix] = v
	}
	return m
}

// FixedPoint grades settled states by the paper's definition of a stable
// solution (§4): per prefix, the routers' advertisements (announced, the
// substrates' AnnouncedFor) restricted to the live paths must be
// reproduced when every router regathers its candidates through Transfer
// and re-selects (protocol.Engine.InducedConfig), and every router's best
// must be the model's. No second run of the code under test is needed, and
// every policy is covered: Modified has one stable solution (Lemma 7.4),
// Classic and Walton may have several. Under Adaptive only the bests are
// compared, since the model has no upgrade history. Stale candidates are
// left to Grade's flushed verdict. It returns the model's best vector per
// prefix, and each prefix that is not a stable solution with its first
// router off the model.
func FixedPoint(systems map[uint32]*topology.System, policy protocol.Policy, opts selection.Options,
	live map[uint32]bgp.PathSet, best map[uint32][]bgp.PathID, announced map[uint32][]bgp.PathSet,
) (model map[uint32][]bgp.PathID, diverged map[uint32]bgp.NodeID) {
	model, diverged = make(map[uint32][]bgp.PathID, len(systems)), map[uint32]bgp.NodeID{}
	var induced protocol.Snapshot
	for prefix, sys := range systems {
		e := protocol.New(sys, policy, opts)
		for _, p := range sys.Exits() {
			if !live[prefix].Contains(p.ID) {
				e.Withdraw(p.ID)
			}
		}
		adv := make([]bgp.PathSet, sys.N())
		for u, a := range announced[prefix] {
			a.ForEach(func(id bgp.PathID) {
				if live[prefix].Contains(id) {
					adv[u].Add(id)
				}
			})
		}
		e.InducedConfig(adv)
		e.SnapshotInto(&induced)
		model[prefix] = slices.Clone(induced.Best)
		for u := range adv {
			if induced.Best[u] != best[prefix][u] || policy != protocol.Adaptive && !induced.Advertised[u].Equal(adv[u]) {
				diverged[prefix] = bgp.NodeID(u)
				break
			}
		}
	}
	return model, diverged
}

// Grade scores one settled state against the five invariants: live are
// the currently announced paths per prefix, best, possible and announced
// the state's vectors (Vectors), c and quiesced the transport's counters
// and rest verdict. Re-convergence is FixedPoint's verdict under policy
// and opts; Grade also returns the model's induced best vectors it was
// judged against.
func Grade(systems map[uint32]*topology.System, policy protocol.Policy, opts selection.Options, live map[uint32]bgp.PathSet,
	best map[uint32][]bgp.PathID, possible, announced map[uint32][]bgp.PathSet, c router.Snapshot, quiesced bool,
) (Verdict, map[uint32][]bgp.PathID) {
	model, diverged := FixedPoint(systems, policy, opts, live, best, announced)
	v := Verdict{
		Quiesced:     quiesced,
		LedgerClosed: c.Outstanding() == 0,
		Diverged:     diverged,
		Stale:        map[uint32][]bgp.PathSet{},
		Looping:      map[uint32]bool{},
	}
	for prefix, sys := range systems {
		for u, ps := range possible[prefix] {
			ps.ForEach(func(id bgp.PathID) {
				if live[prefix].Contains(id) {
					return
				}
				if v.Stale[prefix] == nil {
					v.Stale[prefix] = make([]bgp.PathSet, len(possible[prefix]))
				}
				v.Stale[prefix][u].Add(id)
			})
		}
		if !forwarding.NewPlane(sys, protocol.Snapshot{Best: best[prefix]}).LoopFree() {
			v.Looping[prefix] = true
		}
	}
	return v, model
}

// CheckSim runs one faulted discrete-event simulation and checks every
// invariant of its settled state. It is a pure function of (sys, cfg) — no
// wall clock, no shared RNG — so campaign jobs can fan it out and still
// aggregate byte-identically.
func CheckSim(sys *topology.System, cfg Config) (Report, error) {
	cfg = cfg.fill()
	delay := msgsim.ConstantDelay(1)
	if cfg.DelaySeed != 0 {
		var err error
		if delay, err = msgsim.RandomDelay(cfg.DelaySeed, 1, cfg.MaxDelay); err != nil {
			return Report{}, err
		}
	}
	s := msgsim.New(sys, cfg.Policy, cfg.Opts, delay)
	if err := s.SetFaults(cfg.Plan); err != nil {
		return Report{}, err
	}
	s.InjectAll()
	for _, id := range cfg.Withdraw {
		s.WithdrawPrefixAt(cfg.WithdrawAt, 0, id)
	}
	res := s.Run(cfg.MaxEvents)
	return cfg.report(sys, s.BestFor, s.PossibleFor, s.AnnouncedFor, s.Counters(), res.Quiesced), nil
}

// checkTCP runs the same invariant check over the TCP speakers: real
// connections, real teardowns on reset fates, wall-clock fault horizon.
func checkTCP(sys *topology.System, cfg Config) (Report, error) {
	cfg = cfg.fill()
	n := speaker.New(sys, cfg.Policy, cfg.Opts)
	if err := n.SetFaults(cfg.Plan); err != nil {
		return Report{}, err
	}
	if err := n.Start(); err != nil {
		return Report{}, err
	}
	defer n.Stop()
	start := time.Now()
	n.InjectAll()
	if len(cfg.Withdraw) > 0 {
		if wait := time.Duration(cfg.WithdrawAt)*time.Millisecond - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		for _, id := range cfg.Withdraw {
			n.WithdrawPrefix(0, id)
		}
	}
	quiesced := n.WaitQuiesce(cfg.Timeout, cfg.Settle)
	return cfg.report(sys, n.BestFor,
		func(prefix uint32, u bgp.NodeID) bgp.PathSet { return n.Speaker(u).PossibleFor(prefix) },
		func(prefix uint32, u bgp.NodeID) bgp.PathSet { return n.Speaker(u).AnnouncedFor(prefix) },
		n.Counters(), quiesced), nil
}

// report grades a check's settled single-prefix state, read through the
// substrate's per-router accessors; the live set is every exit but the
// config's withdrawals.
func (c Config) report(sys *topology.System, best func(uint32, bgp.NodeID) bgp.PathID,
	possible, announced func(uint32, bgp.NodeID) bgp.PathSet, counters router.Snapshot, quiesced bool) Report {
	live := sys.AllExitSet()
	for _, id := range c.Withdraw {
		live.Remove(id)
	}
	systems := map[uint32]*topology.System{0: sys}
	b := Vectors(systems, best)
	v, model := Grade(systems, c.Policy, c.Opts, map[uint32]bgp.PathSet{0: live}, b,
		Vectors(systems, possible), Vectors(systems, announced), counters, quiesced)
	return Report{v, b[0], model[0], counters}
}
