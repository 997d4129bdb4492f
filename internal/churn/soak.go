package churn

import (
	"fmt"
	"runtime"
	"sort"
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

// Config parameterises one soak run.
type Config struct {
	// Spec is the churn workload.
	Spec Spec
	// Rounds is the number of churn rounds driven (Spec.Rounds maps a
	// wall-clock duration here). At least 1.
	Rounds int
	// Policy is the advertisement policy. The soak's re-convergence
	// checks presuppose Lemma 7.4 uniqueness, which Modified guarantees;
	// the zero value is Classic, which carries no such guarantee and can
	// only document its own oscillation as violations.
	Policy protocol.Policy
	// Opts are the route-selection options, shared with the reference run.
	Opts selection.Options
	// Plan is an optional fault schedule active during the soak. Rounds
	// that start before the plan's horizon are exempt from the windowed
	// re-convergence / flush / loop-freedom checks (quiescence and ledger
	// closure are always asserted); a plan without a horizon suppresses
	// those checks entirely.
	Plan *faults.Plan
	// MRAI is the per-session minimum route advertisement interval in
	// transport clock units (0 disables).
	MRAI int64
	// Workers is the per-router refresh fan-out (router.SetWorkers) on
	// both substrates. Every value produces the identical UPDATE stream,
	// aggregate and state hash; values below 2 run serially.
	Workers int
	// DelaySeed seeds msgsim's random per-message delay model; 0 derives
	// a seed from Spec.Seed. MaxDelay bounds the delays (default 10).
	// Delays are always jittered, never constant: perfectly synchronous
	// delivery makes every router re-select in lockstep, a pathological
	// schedule under which path exploration at scale practically never
	// settles — while Lemma 7.4 makes the settled outcome independent of
	// the delay draw, so jitter costs no determinism.
	DelaySeed int64
	MaxDelay  int64
	// MaxEventsPerRound bounds each msgsim round (default 2,000,000).
	MaxEventsPerRound int
	// Timeout and Settle drive speaker.WaitQuiesce per round on the TCP
	// substrate (defaults 30s / 150ms).
	Timeout, Settle time.Duration
	// Events, when set, receives every typed router event of the run —
	// the hook a telemetry feed's Sink plugs into.
	Events func(router.Event)
	// EventsBatch, when set, receives each dispatch round's events as one
	// slice (valid only until it returns) — the hook a telemetry feed's
	// SinkBatch plugs into. It amortises per-event observer overhead and
	// may be set together with or instead of Events.
	EventsBatch func([]router.Event)
	// BindCounters, when set, is called once before the run starts with
	// the substrate's live counters getter, so a telemetry feed can serve
	// counter snapshots while the soak runs.
	BindCounters func(func() router.Snapshot)
	// Latency, when set, receives each round's post-burst convergence
	// latency (virtual ticks on msgsim, milliseconds on TCP).
	Latency func(int64)
	// Codec selects the TCP substrate's wire format (nil means the
	// private codec). The codec is pure transport: every codec produces
	// the identical typed-event stream, aggregate and state hash, which
	// the cross-codec differential suite pins.
	Codec speaker.Codec
}

func (c Config) fill() Config {
	if c.Rounds < 1 {
		c.Rounds = 1
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 10
	}
	if c.MaxEventsPerRound <= 0 {
		c.MaxEventsPerRound = 2_000_000
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Settle <= 0 {
		c.Settle = 150 * time.Millisecond
	}
	return c
}

// checkable reports whether round r's quiet window carries the windowed
// Lemma 7.4 invariants. The formula is shared by both substrates — both
// guarantee round r's events occur at transport time >= r*Period — so the
// deterministic aggregate (checked rounds, state hash) is substrate-
// independent: a faultless plan checks every round, a horizoned plan the
// rounds starting at or after the horizon, a horizonless active plan none.
func (c Config) checkable(r int) bool {
	if !c.Plan.Active() {
		return true
	}
	if c.Plan.Horizon <= 0 {
		return false
	}
	return int64(r)*c.Spec.Period >= c.Plan.Horizon
}

// Violation is one failed invariant check.
type Violation struct {
	Round  int    `json:"round"`
	Prefix uint32 `json:"prefix"`
	Kind   string `json:"kind"` // quiesce, reference, reconverge, rib, loop, ledger, aggregate
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d prefix %d %s: %s", v.Round, v.Prefix, v.Kind, v.Detail)
}

// Aggregate is the deterministic part of a soak report: for a given
// (Spec, Rounds, Plan, MRAI, DelaySeed) it is identical across runs and
// substrates — byte for byte under encoding/json — as long as every
// invariant holds. StateHash folds every checked round's converged
// per-prefix routing into one digest.
type Aggregate struct {
	Seed      int64  `json:"seed"`
	Rounds    int    `json:"rounds"`
	Prefixes  int    `json:"prefixes"`
	Routers   int    `json:"routers"`
	Events    int    `json:"events"`
	Announces int    `json:"announces"`
	Withdraws int    `json:"withdraws"`
	FlapPairs int    `json:"flapPairs"`
	Skipped   int    `json:"skipped"`
	Checked   int    `json:"checkedRounds"`
	StateHash string `json:"stateHash"`
}

// LatencyStats summarises the per-round post-burst convergence latencies.
type LatencyStats struct {
	Count int   `json:"count"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// percentiles computes the summary of a sample set (nearest-rank).
func percentiles(samples []int64) LatencyStats {
	st := LatencyStats{Count: len(samples)}
	if len(samples) == 0 {
		return st
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(p float64) int64 {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	st.P50, st.P99, st.Max = rank(0.50), rank(0.99), s[len(s)-1]
	return st
}

// Measured is the wall-clock-dependent part of a soak report.
type Measured struct {
	WallMS      int64           `json:"wallMs"`
	MsgsPerSec  float64         `json:"msgsPerSec"`
	Convergence LatencyStats    `json:"convergence"`
	Counters    router.Snapshot `json:"counters"`
	HeapAllocMB float64         `json:"heapAllocMB"`
}

// Report is the outcome of one soak run on one substrate.
type Report struct {
	Substrate  string      `json:"substrate"`
	Agg        Aggregate   `json:"aggregate"`
	Measured   Measured    `json:"measured"`
	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether every asserted invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// domainSystems replicates one topology across the spec's prefixes: every
// prefix shares the identical session graph and exit set, the multi-prefix
// shape router.NewDomain validates.
func domainSystems(sys *topology.System, prefixes int) map[uint32]*topology.System {
	m := make(map[uint32]*topology.System, prefixes)
	for p := 0; p < prefixes; p++ {
		m[uint32(p)] = sys
	}
	return m
}

// exitIDs lists a system's exit-path IDs.
func exitIDs(sys *topology.System) []bgp.PathID {
	exits := sys.Exits()
	ids := make([]bgp.PathID, len(exits))
	for i, p := range exits {
		ids[i] = p.ID
	}
	return ids
}

// reference is the incremental fault-free oracle: a constant-delay msgsim
// run over the same domain, fed the identical event stream round by round
// and settled after each. Lemma 7.4 (the modified protocol's final
// configuration is unique for a given set of announced routes, whatever
// the message ordering) is what makes its per-round fixpoint the one the
// faulted, delayed, MRAI-paced run must land on too.
type reference struct {
	sim *msgsim.Sim
	n   int
	max int
	// used tracks the sim's cumulative event count, because Run's budget
	// is cumulative too: each settle extends it by the per-round max.
	used int
}

func newReference(sys *topology.System, cfg Config) (*reference, error) {
	// The delay draw cannot change the fixpoint (Lemma 7.4), so the
	// reference fixes its own seed; jitter matters only to break the
	// synchronous lockstep that stalls convergence at scale.
	ref := &reference{
		sim: msgsim.NewMulti(domainSystems(sys, cfg.Spec.Prefixes), cfg.Policy, cfg.Opts,
			msgsim.MustRandomDelay(cfg.Spec.Seed+0x5eed, 1, 10)),
		n:   sys.N(),
		max: cfg.MaxEventsPerRound,
	}
	ref.sim.InjectAll()
	res := ref.sim.Run(ref.max)
	ref.used = res.Events
	if !res.Quiesced {
		return nil, fmt.Errorf("churn: fault-free reference did not quiesce at warm-up (policy has no stable outcome?)")
	}
	return ref, nil
}

// advance applies one round's events to the reference and settles it,
// returning the converged best vector per prefix.
func (ref *reference) advance(evs []Event, prefixes int) (map[uint32][]bgp.PathID, error) {
	base := ref.sim.Now() + 1
	for _, ev := range evs {
		if ev.Withdraw {
			ref.sim.WithdrawPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		} else {
			ref.sim.InjectPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		}
	}
	res := ref.sim.Run(ref.used + ref.max)
	ref.used = res.Events
	if !res.Quiesced {
		return nil, fmt.Errorf("churn: fault-free reference did not quiesce")
	}
	best := make(map[uint32][]bgp.PathID, prefixes)
	for p := 0; p < prefixes; p++ {
		v := make([]bgp.PathID, ref.n)
		for u := 0; u < ref.n; u++ {
			v[u] = ref.sim.BestFor(uint32(p), bgp.NodeID(u))
		}
		best[uint32(p)] = v
	}
	return best, nil
}

// checker accumulates the rolling invariant results shared by both
// substrate drivers.
type checker struct {
	sys        *topology.System
	cfg        Config
	stream     *Stream
	ref        *reference
	hash       uint64
	checked    int
	events     int
	violations []Violation
}

func newChecker(sys *topology.System, cfg Config) (*checker, error) {
	stream, err := NewStream(cfg.Spec, exitIDs(sys))
	if err != nil {
		return nil, err
	}
	ref, err := newReference(sys, cfg)
	if err != nil {
		return nil, err
	}
	return &checker{sys: sys, cfg: cfg, stream: stream, ref: ref, hash: faults.SplitMix64(uint64(cfg.Spec.Seed))}, nil
}

func (c *checker) violate(round int, prefix uint32, kind, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Round: round, Prefix: prefix, Kind: kind, Detail: fmt.Sprintf(format, args...),
	})
}

// state is the per-round snapshot a substrate driver hands the checker:
// the converged best path and candidate set per (prefix, router), plus the
// transport's quiescence verdict and counter snapshot.
type state struct {
	best     map[uint32][]bgp.PathID
	possible map[uint32][]bgp.PathSet
	counters router.Snapshot
	quiesced bool
}

// check grades one settled round against the rolling invariants:
// quiescence and ledger closure always; on checkable rounds also the
// windowed Lemma 7.4 re-convergence against the reference, the bounded-RIB
// containment (no candidate set may retain a route the generator has
// withdrawn — the invariant that rules out unbounded RIB growth under
// sustained churn), and forwarding-plane loop freedom per prefix. Checked
// rounds fold their converged routing into the state hash. Returns false
// when the round failed to quiesce (the soak cannot meaningfully go on).
func (c *checker) check(round int, evs []Event, st state) bool {
	c.events += len(evs)
	if !st.quiesced {
		c.violate(round, 0, "quiesce", "round did not quiesce within its budget")
		return false
	}
	if got, want := st.counters.Sent, st.counters.Received+st.counters.Rejected+st.counters.Dropped; got != want {
		c.violate(round, 0, "ledger", "sent=%d but received+rejected+dropped=%d at rest", got, want)
	}
	// The reference consumes every round — checkable or not — so it stays
	// in lockstep with the run's announced-route state.
	refBest, err := c.ref.advance(evs, c.cfg.Spec.Prefixes)
	if err != nil {
		c.violate(round, 0, "reference", "%v", err)
		return false
	}
	if !c.cfg.checkable(round) {
		return true
	}
	c.checked++
	c.fold(uint64(uint32(round)))
	for p := 0; p < c.cfg.Spec.Prefixes; p++ {
		prefix := uint32(p)
		live := c.stream.Live(prefix)
		ref := refBest[prefix]
		best := st.best[prefix]
		for u := range best {
			if best[u] != ref[u] {
				c.violate(round, prefix, "reconverge",
					"router %s best p%d, reference p%d", c.sys.Name(bgp.NodeID(u)), best[u], ref[u])
				break
			}
		}
		for u, ps := range st.possible[prefix] {
			for _, id := range ps.IDs() {
				if !live.Contains(id) {
					c.violate(round, prefix, "rib",
						"router %s retains withdrawn route p%d (live %v)",
						c.sys.Name(bgp.NodeID(u)), id, live)
				}
			}
		}
		if !forwarding.NewPlane(c.sys, protocol.Snapshot{Best: best}).LoopFree() {
			c.violate(round, prefix, "loop", "forwarding plane has a loop under %v", best)
		}
		for u := range best {
			c.fold(uint64(uint32(prefix))<<40 ^ uint64(uint32(u))<<8 ^ uint64(uint32(best[u]+1)))
		}
	}
	return true
}

// fold mixes one value into the rolling state hash.
func (c *checker) fold(v uint64) { c.hash = faults.SplitMix64(c.hash ^ v) }

// aggregate assembles the deterministic summary after the last round.
func (c *checker) aggregate(rounds int) Aggregate {
	return Aggregate{
		Seed:      c.cfg.Spec.Seed,
		Rounds:    rounds,
		Prefixes:  c.cfg.Spec.Prefixes,
		Routers:   c.sys.N(),
		Events:    c.events,
		Announces: c.stream.Announces(),
		Withdraws: c.stream.Withdraws(),
		FlapPairs: c.stream.FlapPairs(),
		Skipped:   c.stream.Skipped(),
		Checked:   c.checked,
		StateHash: fmt.Sprintf("%016x", c.hash),
	}
}

// report assembles the final Report once the rounds are over.
func (c *checker) report(substrate string, rounds int, start time.Time, samples []int64, counters router.Snapshot) *Report {
	wall := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := Measured{
		WallMS:      wall.Milliseconds(),
		Convergence: percentiles(samples),
		Counters:    counters,
		HeapAllocMB: float64(ms.HeapAlloc) / (1 << 20),
	}
	if secs := wall.Seconds(); secs > 0 {
		m.MsgsPerSec = float64(counters.Sent) / secs
	}
	return &Report{
		Substrate:  substrate,
		Agg:        c.aggregate(rounds),
		Measured:   m,
		Violations: c.violations,
	}
}

// snapshot collects the per-prefix best and candidate vectors of one
// settled round from either substrate.
func snapshot(n int, prefixes int, best func(uint32, bgp.NodeID) bgp.PathID, possible func(uint32, bgp.NodeID) bgp.PathSet) (map[uint32][]bgp.PathID, map[uint32][]bgp.PathSet) {
	bm := make(map[uint32][]bgp.PathID, prefixes)
	pm := make(map[uint32][]bgp.PathSet, prefixes)
	for p := 0; p < prefixes; p++ {
		prefix := uint32(p)
		bv := make([]bgp.PathID, n)
		pv := make([]bgp.PathSet, n)
		for u := 0; u < n; u++ {
			bv[u] = best(prefix, bgp.NodeID(u))
			pv[u] = possible(prefix, bgp.NodeID(u))
		}
		bm[prefix], pm[prefix] = bv, pv
	}
	return bm, pm
}

// SoakSim drives one churn soak on the discrete-event simulator substrate.
// Rounds are anchored at virtual tick r*Period — every event of round r is
// scheduled at or after that instant, which is what lets checkable share
// its horizon arithmetic with the wall-clock substrate — and each round
// runs to quiescence before its quiet-window invariants are graded. The
// returned Report's Aggregate is a pure function of (Spec, Rounds, Plan,
// MRAI, DelaySeed); only Measured varies run to run.
func SoakSim(sys *topology.System, cfg Config) (*Report, error) {
	cfg = cfg.fill()
	c, err := newChecker(sys, cfg)
	if err != nil {
		return nil, err
	}
	seed := cfg.DelaySeed
	if seed == 0 {
		seed = cfg.Spec.Seed + 1
	}
	delay, err := msgsim.RandomDelay(seed, 1, cfg.MaxDelay)
	if err != nil {
		return nil, err
	}
	s := msgsim.NewMulti(domainSystems(sys, cfg.Spec.Prefixes), cfg.Policy, cfg.Opts, delay)
	if cfg.Events != nil {
		s.ObserveEvents(cfg.Events)
	}
	if cfg.EventsBatch != nil {
		s.ObserveEventsBatch(cfg.EventsBatch)
	}
	if cfg.BindCounters != nil {
		cfg.BindCounters(s.Counters)
	}
	if cfg.MRAI > 0 {
		s.SetMRAI(cfg.MRAI)
	}
	if cfg.Workers > 1 {
		s.SetWorkers(cfg.Workers)
	}
	if err := s.SetFaults(cfg.Plan); err != nil {
		return nil, err
	}

	start := time.Now()
	var samples []int64

	s.InjectAll()
	res := s.Run(cfg.MaxEventsPerRound)
	if !res.Quiesced {
		c.violate(0, 0, "quiesce", "warm-up did not quiesce within %d events", cfg.MaxEventsPerRound)
		return c.report("sim", 0, start, samples, s.Counters()), nil
	}

	rounds := 0
	for r := 0; r < cfg.Rounds; r++ {
		evs := c.stream.Next()
		base := s.Now() + 1
		if anchor := int64(r) * cfg.Spec.Period; base < anchor {
			base = anchor
		}
		var last int64
		for _, ev := range evs {
			if ev.At > last {
				last = ev.At
			}
			if ev.Withdraw {
				s.WithdrawPrefixAt(base+ev.At, ev.Prefix, ev.Path)
			} else {
				s.InjectPrefixAt(base+ev.At, ev.Prefix, ev.Path)
			}
		}
		// Run's event budget is cumulative across calls, so each round
		// extends it by the per-round allowance.
		res = s.Run(res.Events + cfg.MaxEventsPerRound)
		lat := res.Time - (base + last)
		if lat < 0 {
			lat = 0
		}
		samples = append(samples, lat)
		if cfg.Latency != nil {
			cfg.Latency(lat)
		}
		best, possible := snapshot(sys.N(), cfg.Spec.Prefixes, s.BestFor, s.PossibleFor)
		rounds = r + 1
		if !c.check(r, evs, state{best: best, possible: possible, counters: s.Counters(), quiesced: res.Quiesced}) {
			break
		}
	}
	return c.report("sim", rounds, start, samples, s.Counters()), nil
}

// SoakTCP drives the identical soak over loopback TCP speakers. Rounds are
// anchored at wall-clock start + r*Period milliseconds — the sleep before
// each round is what upholds the checkable guarantee on this substrate —
// and a round's events are applied in At order back to back (Lemma 7.4
// makes the settled state independent of the intra-round spacing).
func SoakTCP(sys *topology.System, cfg Config) (*Report, error) {
	cfg = cfg.fill()
	c, err := newChecker(sys, cfg)
	if err != nil {
		return nil, err
	}
	n, err := speaker.NewMulti(domainSystems(sys, cfg.Spec.Prefixes), cfg.Policy, cfg.Opts)
	if err != nil {
		return nil, err
	}
	if cfg.Codec != nil {
		n.SetCodec(cfg.Codec)
	}
	if cfg.Events != nil {
		n.Subscribe(cfg.Events)
	}
	if cfg.EventsBatch != nil {
		n.SubscribeBatch(cfg.EventsBatch)
	}
	if cfg.BindCounters != nil {
		cfg.BindCounters(n.Counters)
	}
	if cfg.MRAI > 0 {
		n.SetMRAI(cfg.MRAI)
	}
	if cfg.Workers > 1 {
		n.SetWorkers(cfg.Workers)
	}
	if err := n.SetFaults(cfg.Plan); err != nil {
		return nil, err
	}

	start := time.Now()
	if err := n.Start(); err != nil {
		return nil, err
	}
	defer n.Stop()
	var samples []int64

	n.InjectAll()
	if !n.WaitQuiesce(cfg.Timeout, cfg.Settle) {
		c.violate(0, 0, "quiesce", "warm-up did not quiesce within %v", cfg.Timeout)
		return c.report("tcp", 0, start, samples, n.Counters()), nil
	}

	rounds := 0
	for r := 0; r < cfg.Rounds; r++ {
		evs := c.stream.Next()
		if d := time.Until(start.Add(time.Duration(int64(r)*cfg.Spec.Period) * time.Millisecond)); d > 0 {
			time.Sleep(d)
		}
		ordered := append([]Event(nil), evs...)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
		for _, ev := range ordered {
			if ev.Withdraw {
				n.WithdrawPrefix(ev.Prefix, ev.Path)
			} else {
				n.InjectPrefix(ev.Prefix, ev.Path)
			}
		}
		applied := time.Now()
		quiesced := n.WaitQuiesce(cfg.Timeout, cfg.Settle)
		// WaitQuiesce holds for a settle window after the last activity;
		// subtract it so the sample approximates time-to-converge.
		lat := time.Since(applied).Milliseconds() - cfg.Settle.Milliseconds()
		if lat < 0 {
			lat = 0
		}
		samples = append(samples, lat)
		if cfg.Latency != nil {
			cfg.Latency(lat)
		}
		best, possible := snapshot(sys.N(), cfg.Spec.Prefixes, n.BestFor, func(prefix uint32, u bgp.NodeID) bgp.PathSet {
			return n.Speaker(u).PossibleFor(prefix)
		})
		rounds = r + 1
		if !c.check(r, evs, state{best: best, possible: possible, counters: n.Counters(), quiesced: quiesced}) {
			break
		}
	}
	return c.report("tcp", rounds, start, samples, n.Counters()), nil
}
