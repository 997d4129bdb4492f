// Package chaos checks the fault-horizon invariants of the modified
// protocol: under any fault schedule that eventually ceases — drops,
// duplicates, reorders, delays, session resets — modified I-BGP must
// re-converge to the unique configuration of Lemma 7.4 that a fault-free
// run reaches, withdrawn routes must be flushed everywhere (RFC 4271 §8.2
// / Lemma 7.6), the resulting forwarding plane must be loop-free, and the
// transport's quiescence ledger must balance. It runs the same check on
// both substrates: the discrete-event simulator (deterministic, fit for
// campaigns) and the TCP speakers (wall clock, fit for smoke tests).
//
// Reference and Grade are the repo's one Lemma 7.4 oracle: the churn soak
// and the scale campaign grade their settled states through them too.
package chaos

import (
	"fmt"
	"maps"
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
	// Opts are the route-selection options, shared with the reference run.
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
	// Diverged holds the prefixes that did not re-converge to the fault-free
	// reference configuration (Lemma 7.4), each with the first router whose
	// best route is off it.
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
	// Best is the final best path per router; Reference the fault-free
	// configuration it is compared against.
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
		return fmt.Sprintf("re-converged to %v, reference %v", r.Best, r.Reference)
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

// Reference computes the fault-free configuration a settled run must have
// returned to: a cold, deterministic constant-delay msgsim convergence over
// the domain with exactly each prefix's live paths announced, returning the
// best vector per prefix. Under the modified protocol that configuration is
// unique for a given set of announced routes (Lemma 7.4), so it serves any
// substrate, delay model and fault history. It fails when the baseline
// itself does not quiesce — the caller is then checking a policy with no
// stable outcome (classic on an oscillator) and should use Oscillates
// instead.
func Reference(systems map[uint32]*topology.System, policy protocol.Policy, opts selection.Options,
	live map[uint32]bgp.PathSet, maxEvents int) (map[uint32][]bgp.PathID, error) {
	s := msgsim.NewMulti(systems, policy, opts, msgsim.ConstantDelay(1))
	for _, prefix := range slices.Sorted(maps.Keys(systems)) {
		live[prefix].ForEach(func(id bgp.PathID) { s.InjectPrefixAt(0, prefix, id) })
	}
	if !s.Run(maxEvents).Quiesced {
		return nil, fmt.Errorf("chaos: fault-free baseline did not quiesce in %d events (policy %v)",
			maxEvents, policy)
	}
	return Vectors(systems, s.BestFor), nil
}

// Vectors collects one per-(prefix, router) quantity of a settled substrate
// — its best paths or its candidate sets — in the shape Grade judges.
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

// Grade scores one settled state against the five invariants: ref is the
// fault-free configuration per prefix (Reference, or churn's incremental
// replica), live the currently announced paths per prefix, best and
// possible the state's vectors (Vectors), c and quiesced the transport's
// counters and rest verdict.
func Grade(systems map[uint32]*topology.System, ref map[uint32][]bgp.PathID, live map[uint32]bgp.PathSet,
	best map[uint32][]bgp.PathID, possible map[uint32][]bgp.PathSet, c router.Snapshot, quiesced bool) Verdict {
	v := Verdict{
		Quiesced:     quiesced,
		LedgerClosed: c.Outstanding() == 0,
		Diverged:     map[uint32]bgp.NodeID{},
		Stale:        map[uint32][]bgp.PathSet{},
		Looping:      map[uint32]bool{},
	}
	for prefix, sys := range systems {
		for u, b := range best[prefix] {
			if b != ref[prefix][u] {
				v.Diverged[prefix] = bgp.NodeID(u)
				break
			}
		}
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
	return v
}

// domain is the single-prefix domain a Check runs over and its live set:
// every exit but the config's withdrawals.
func (c Config) domain(sys *topology.System) (map[uint32]*topology.System, map[uint32]bgp.PathSet) {
	live := sys.AllExitSet()
	for _, id := range c.Withdraw {
		live.Remove(id)
	}
	return map[uint32]*topology.System{0: sys}, map[uint32]bgp.PathSet{0: live}
}

// subject builds the faulted, delayed simulation under test.
func (c Config) subject(sys *topology.System) (*msgsim.Sim, error) {
	delay := msgsim.ConstantDelay(1)
	if c.DelaySeed != 0 {
		var err error
		delay, err = msgsim.RandomDelay(c.DelaySeed, 1, c.MaxDelay)
		if err != nil {
			return nil, err
		}
	}
	s := msgsim.New(sys, c.Policy, c.Opts, delay)
	if err := s.SetFaults(c.Plan); err != nil {
		return nil, err
	}
	s.InjectAll()
	return s, nil
}

// CheckSim runs one faulted discrete-event simulation and checks every
// invariant against the fault-free reference. It is a pure function of
// (sys, cfg) — no wall clock, no shared RNG — so campaign jobs can fan it
// out and still aggregate byte-identically.
func CheckSim(sys *topology.System, cfg Config) (Report, error) {
	cfg = cfg.fill()
	systems, live := cfg.domain(sys)
	ref, err := Reference(systems, cfg.Policy, cfg.Opts, live, cfg.MaxEvents)
	if err != nil {
		return Report{}, err
	}
	s, err := cfg.subject(sys)
	if err != nil {
		return Report{}, err
	}
	for _, id := range cfg.Withdraw {
		s.WithdrawPrefixAt(cfg.WithdrawAt, 0, id)
	}
	res := s.Run(cfg.MaxEvents)
	best, possible := Vectors(systems, s.BestFor), Vectors(systems, s.PossibleFor)
	c := s.Counters()
	return Report{Grade(systems, ref, live, best, possible, c, res.Quiesced), best[0], ref[0], c}, nil
}

// checkTCP runs the same invariant check over the TCP speakers: real
// connections, real teardowns on reset fates, wall-clock fault horizon.
func checkTCP(sys *topology.System, cfg Config) (Report, error) {
	cfg = cfg.fill()
	systems, live := cfg.domain(sys)
	ref, err := Reference(systems, cfg.Policy, cfg.Opts, live, cfg.MaxEvents)
	if err != nil {
		return Report{}, err
	}
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
	best := Vectors(systems, n.BestFor)
	possible := Vectors(systems, func(prefix uint32, u bgp.NodeID) bgp.PathSet {
		return n.Speaker(u).PossibleFor(prefix)
	})
	c := n.Counters()
	return Report{Grade(systems, ref, live, best, possible, c, quiesced), best[0], ref[0], c}, nil
}

// Oscillates runs one faulted simulation of a policy expected to have no
// stable outcome and reports whether it indeed failed to quiesce within
// the budget — the guard that fault injection does not mask the paper's
// Figure 1(a)/Figure 3 pathologies.
func Oscillates(sys *topology.System, cfg Config) (bool, error) {
	cfg = cfg.fill()
	s, err := cfg.subject(sys)
	if err != nil {
		return false, err
	}
	return !s.Run(cfg.MaxEvents).Quiesced, nil
}
