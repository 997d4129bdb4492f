package churn

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/chaos"
	"repro/internal/faults"
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
	// Policy is the advertisement policy. Every settled round must be a
	// stable solution of the model under it (chaos.FixedPoint): the one
	// Lemma 7.4 guarantees under Modified, any of several under Classic.
	// A policy with no stable outcome on the topology fails its own
	// quiescence check instead.
	Policy protocol.Policy
	// Opts are the route-selection options, shared with the model the
	// settled rounds are graded against.
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
	// EventsBatch, when set, receives each dispatch round's events as one
	// slice (valid only until it returns) — the hook a telemetry feed's
	// SinkBatch plugs into.
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
	Kind   string `json:"kind"` // quiesce, reconverge, rib, loop, ledger, aggregate
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

// RunRound schedules one round's events on a settled simulator — no earlier
// than tick anchor, and strictly after everything it has processed — then
// runs it to rest on an event budget of perRound beyond prev's (Run's
// budget is cumulative across calls). It returns the settled result and the
// round's post-burst convergence latency in ticks.
func RunRound(s *msgsim.Sim, prev msgsim.Result, evs []Event, anchor int64, perRound int) (msgsim.Result, int64) {
	base := s.Now() + 1
	if base < anchor {
		base = anchor
	}
	last := base
	for _, ev := range evs {
		if base+ev.At > last {
			last = base + ev.At
		}
		if ev.Withdraw {
			s.WithdrawPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		} else {
			s.InjectPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		}
	}
	res := s.Run(prev.Events + perRound)
	return res, max(res.Time-last, 0)
}

// checker accumulates the rolling invariant results shared by both
// substrate drivers.
type checker struct {
	sys        *topology.System
	systems    map[uint32]*topology.System // sys once per prefix
	cfg        Config
	stream     *Stream
	hash       uint64
	rounds     int
	checked    int
	events     int
	samples    []int64 // per-round convergence latencies
	violations []Violation
}

func newChecker(sys *topology.System, cfg Config) (*checker, error) {
	stream, err := NewStream(cfg.Spec, sys.AllExitSet().IDs())
	if err != nil {
		return nil, err
	}
	return &checker{sys: sys, systems: domainSystems(sys, cfg.Spec.Prefixes), cfg: cfg, stream: stream,
		hash: faults.SplitMix64(uint64(cfg.Spec.Seed))}, nil
}

func (c *checker) violate(round int, prefix uint32, kind, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Round: round, Prefix: prefix, Kind: kind, Detail: fmt.Sprintf(format, args...),
	})
}

// state is the per-round snapshot a substrate driver hands the checker:
// the converged best path, candidate set and advertisement per (prefix,
// router), the transport's quiescence verdict and counter snapshot, and the
// round's post-burst convergence latency (virtual ticks on msgsim,
// milliseconds on TCP).
type state struct {
	best      map[uint32][]bgp.PathID
	possible  map[uint32][]bgp.PathSet
	announced map[uint32][]bgp.PathSet
	counters  router.Snapshot
	quiesced  bool
	latency   int64
}

// check grades one settled round against the rolling invariants:
// quiescence and ledger closure always; on checkable rounds also chaos.Grade's
// per-prefix verdicts — the windowed re-convergence to a stable solution of
// the model (chaos.FixedPoint), the bounded-RIB containment (no candidate set may retain a
// route the generator has withdrawn — the invariant that rules out
// unbounded RIB growth under sustained churn), and forwarding-plane loop
// freedom. Checked rounds fold their converged routing into the state hash.
// Returns false when the round failed to quiesce (the soak cannot
// meaningfully go on).
func (c *checker) check(round, events int, st state) bool {
	c.rounds = round + 1
	c.events += events
	c.samples = append(c.samples, st.latency)
	if c.cfg.Latency != nil {
		c.cfg.Latency(st.latency)
	}
	if !st.quiesced {
		c.violate(round, 0, "quiesce", "round did not quiesce within its budget")
		return false
	}
	if out := st.counters.Outstanding(); out != 0 {
		c.violate(round, 0, "ledger", "sent=%d but received+rejected+dropped=%d at rest",
			st.counters.Sent, st.counters.Sent-out)
	}
	if !c.cfg.checkable(round) {
		return true
	}
	c.checked++
	c.fold(uint64(uint32(round)))
	live := make(map[uint32]bgp.PathSet, len(c.systems))
	for prefix := range c.systems {
		live[prefix] = c.stream.Live(prefix)
	}
	v, model := chaos.Grade(c.systems, c.cfg.Policy, c.cfg.Opts, live, st.best, st.possible, st.announced, st.counters, st.quiesced)
	for p := 0; p < c.cfg.Spec.Prefixes; p++ {
		prefix := uint32(p)
		best := st.best[prefix]
		if u, off := v.Diverged[prefix]; off {
			c.violate(round, prefix, "reconverge",
				"router %s best p%d, model p%d", c.sys.Name(u), best[u], model[prefix][u])
		}
		for u, stale := range v.Stale[prefix] {
			for _, id := range stale.IDs() {
				c.violate(round, prefix, "rib",
					"router %s retains withdrawn route p%d (live %v)",
					c.sys.Name(bgp.NodeID(u)), id, live[prefix])
			}
		}
		if v.Looping[prefix] {
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
func (c *checker) aggregate() Aggregate {
	return Aggregate{
		Seed:      c.cfg.Spec.Seed,
		Rounds:    c.rounds,
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
func (c *checker) report(substrate string, start time.Time, counters router.Snapshot) *Report {
	wall := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := Measured{
		WallMS:      wall.Milliseconds(),
		Convergence: percentiles(c.samples),
		Counters:    counters,
		HeapAllocMB: float64(ms.HeapAlloc) / (1 << 20),
	}
	if secs := wall.Seconds(); secs > 0 {
		m.MsgsPerSec = float64(counters.Sent) / secs
	}
	return &Report{
		Substrate:  substrate,
		Agg:        c.aggregate(),
		Measured:   m,
		Violations: c.violations,
	}
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
	s := msgsim.NewMulti(c.systems, cfg.Policy, cfg.Opts, delay)
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
	s.InjectAll()
	res := s.Run(cfg.MaxEventsPerRound)
	if !res.Quiesced {
		c.violate(0, 0, "quiesce", "warm-up did not quiesce within %d events", cfg.MaxEventsPerRound)
		return c.report("sim", start, s.Counters()), nil
	}

	for r := 0; r < cfg.Rounds; r++ {
		evs := c.stream.Next()
		var lat int64
		res, lat = RunRound(s, res, evs, int64(r)*cfg.Spec.Period, cfg.MaxEventsPerRound)
		if !c.check(r, len(evs), state{
			best: chaos.Vectors(c.systems, s.BestFor), possible: chaos.Vectors(c.systems, s.PossibleFor),
			announced: chaos.Vectors(c.systems, s.AnnouncedFor),
			counters:  s.Counters(), quiesced: res.Quiesced, latency: lat,
		}) {
			break
		}
	}
	return c.report("sim", start, s.Counters()), nil
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
	n, err := speaker.NewMulti(c.systems, cfg.Policy, cfg.Opts)
	if err != nil {
		return nil, err
	}
	if cfg.Codec != nil {
		n.SetCodec(cfg.Codec)
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
	n.InjectAll()
	if !n.WaitQuiesce(cfg.Timeout, cfg.Settle) {
		c.violate(0, 0, "quiesce", "warm-up did not quiesce within %v", cfg.Timeout)
		return c.report("tcp", start, n.Counters()), nil
	}

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
		lat := max(time.Since(applied).Milliseconds()-cfg.Settle.Milliseconds(), 0)
		possible := chaos.Vectors(c.systems, func(prefix uint32, u bgp.NodeID) bgp.PathSet {
			return n.Speaker(u).PossibleFor(prefix)
		})
		announced := chaos.Vectors(c.systems, func(prefix uint32, u bgp.NodeID) bgp.PathSet {
			return n.Speaker(u).AnnouncedFor(prefix)
		})
		if !c.check(r, len(evs), state{
			best: chaos.Vectors(c.systems, n.BestFor), possible: possible, announced: announced,
			counters: n.Counters(), quiesced: quiesced, latency: lat,
		}) {
			break
		}
	}
	return c.report("tcp", start, n.Counters()), nil
}
