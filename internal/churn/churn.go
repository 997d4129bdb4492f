// Package churn generates seeded, deterministic E-BGP churn workloads —
// per-prefix streams of announce / withdraw / flap events with
// configurable rates and burst shapes — and drives them against both
// operational substrates (the discrete-event simulator of package msgsim
// and the TCP speakers of package speaker) for soak runs that continuously
// assert the chaos invariants: windowed Lemma 7.4 re-convergence after
// each faultless quiet window, loop freedom, bounded RIB growth, and
// quiescence-ledger closure.
//
// Determinism follows the design of package faults: every choice the
// generator makes — event offsets inside a round's burst window, the
// prefix and path an event touches, whether it is a flap — is a pure
// splitmix64 hash of (spec seed, round, slot), never a draw from shared
// RNG state. Two streams with the same spec therefore emit the identical
// event sequence, which is what makes a soak's final aggregate a pure
// function of its seed across substrates and runs.
//
// Time is shaped in rounds: each round opens with a burst window of length
// Spec.Burst in which every event of the round lands, followed by a quiet
// window to the end of the Period in which the system re-converges and the
// rolling invariants are checked: each quiet window must end in a stable
// solution of the paper's model (chaos.FixedPoint), which Lemma 7.4 makes
// unique under the modified protocol, independent of message ordering and
// timing.
package churn

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/faults"
)

// Spec shapes one churn workload. The zero value is invalid; start from
// DefaultSpec.
type Spec struct {
	// Seed keys every per-event hash.
	Seed int64
	// Prefixes is the number of destination prefixes carried (numbered
	// 0..Prefixes-1), each with the full exit-path set of the topology.
	Prefixes int
	// Rate is the mean number of E-BGP events per second, summed over all
	// prefixes.
	Rate float64
	// Period is the length of one round in transport-clock milliseconds
	// (virtual ticks on msgsim, wall milliseconds on TCP).
	Period int64
	// Burst is the window at the head of each round, in the same units, in
	// which the round's events land; the remainder of the period is the
	// quiet window the invariant checks ride on. 0 < Burst <= Period.
	Burst int64
	// FlapProb is the probability that an event is a flap — a withdrawal
	// followed by a re-announcement of the same path within the round —
	// rather than a persistent announce/withdraw toggle.
	FlapProb float64
}

// DefaultSpec is the baseline soak workload: four prefixes, twenty events
// per second in 300 ms bursts at the head of one-second rounds, one event
// in five a flap.
func DefaultSpec() Spec {
	return Spec{Seed: 1, Prefixes: 4, Rate: 20, Period: 1000, Burst: 300, FlapProb: 0.2}
}

// Validate rejects degenerate workloads. The range checks are negated so
// that NaN, for which every comparison is false, fails them.
func (s Spec) Validate() error {
	switch {
	case s.Prefixes < 1:
		return fmt.Errorf("churn: Prefixes = %d, need at least one", s.Prefixes)
	case !(s.Rate > 0) || math.IsInf(s.Rate, 1):
		return fmt.Errorf("churn: Rate = %v, need a positive finite event rate", s.Rate)
	case s.Period <= 0:
		return fmt.Errorf("churn: Period = %d ms, need a positive round length", s.Period)
	case s.Burst <= 0 || s.Burst > s.Period:
		return fmt.Errorf("churn: Burst = %d ms, need 0 < Burst <= Period (%d)", s.Burst, s.Period)
	case !(s.FlapProb >= 0 && s.FlapProb <= 1):
		return fmt.Errorf("churn: FlapProb = %v outside [0,1]", s.FlapProb)
	}
	return nil
}

// EventsPerRound returns the number of event slots one round draws.
func (s Spec) EventsPerRound() int {
	n := int(s.Rate * float64(s.Period) / 1000)
	if n < 1 {
		n = 1
	}
	return n
}

// Rounds maps a wall-clock duration onto a deterministic round count —
// the knob that keeps a soak's aggregate a pure function of its seed
// while the command line speaks durations.
func (s Spec) Rounds(d time.Duration) int {
	n := int(d.Milliseconds() / s.Period)
	if n < 1 {
		n = 1
	}
	return n
}

// String renders the spec in ParseChurnSpec key=value syntax.
func (s Spec) String() string {
	return fmt.Sprintf("seed=%d,prefixes=%d,rate=%g,period=%d,burst=%d,flap=%g",
		s.Seed, s.Prefixes, s.Rate, s.Period, s.Burst, s.FlapProb)
}

// Event is one E-BGP action of a round: at offset At (ms into the round),
// the exit path Path of prefix Prefix is withdrawn or (re-)announced.
type Event struct {
	At       int64
	Prefix   uint32
	Path     bgp.PathID
	Withdraw bool
}

// Stream generates the event rounds of one workload and tracks, per
// prefix, which exit paths are currently announced. Rounds are generated
// strictly in order; the live sets after round r are the reference the
// bounded-RIB invariant checks candidate sets against.
type Stream struct {
	spec  Spec
	paths []bgp.PathID // every prefix's full exit-path set, sorted
	live  []map[bgp.PathID]bool
	round int

	announces, withdraws, flapPairs, skipped int
}

// NewStream builds the generator for a workload over the given exit-path
// set (shared by every prefix, as the substrates' multi-prefix domains
// share one topology). Every path starts live — the soak's warm-up
// injects all of them — and at least one path per prefix stays live at
// all times, so reference convergence is never vacuous.
func NewStream(spec Spec, paths []bgp.PathID) (*Stream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("churn: no exit paths to churn")
	}
	sorted := append([]bgp.PathID(nil), paths...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st := &Stream{spec: spec, paths: sorted}
	for p := 0; p < spec.Prefixes; p++ {
		m := make(map[bgp.PathID]bool, len(sorted))
		for _, id := range sorted {
			m[id] = true
		}
		st.live = append(st.live, m)
	}
	return st, nil
}

// Round returns the index of the next round Next will generate.
func (st *Stream) Round() int { return st.round }

// Announces, Withdraws, FlapPairs and Skipped report the generator-level
// totals so far: persistent announces and withdraws emitted (flap legs
// included), flap pairs emitted, and slots skipped because no eligible
// path existed.
func (st *Stream) Announces() int { return st.announces }
func (st *Stream) Withdraws() int { return st.withdraws }
func (st *Stream) FlapPairs() int { return st.flapPairs }
func (st *Stream) Skipped() int   { return st.skipped }

// Live returns the currently-announced paths of one prefix as a PathSet.
func (st *Stream) Live(prefix uint32) bgp.PathSet {
	if int(prefix) >= len(st.live) {
		return bgp.PathSet{}
	}
	ids := make([]bgp.PathID, 0, len(st.live[prefix]))
	for id, on := range st.live[prefix] {
		if on {
			ids = append(ids, id)
		}
	}
	return bgp.NewPathSet(ids...)
}

// slot is one drawn event slot of a round, ordered by burst offset before
// actions are assigned so that bookkeeping order equals time order.
type slot struct {
	offset int64
	h      uint64
	idx    int
}

// Next generates the next round's events, in emission order: sorted by
// time except that a flap's re-announcement (which may land past later
// slots' offsets) directly follows its withdrawal. Events at equal times
// apply in emission order on both substrates, so the live sets here and
// the routers' final state agree whatever the intra-round interleaving.
func (st *Stream) Next() []Event {
	r := st.round
	st.round++
	k := st.spec.EventsPerRound()
	slots := make([]slot, k)
	for i := 0; i < k; i++ {
		key := uint64(st.spec.Seed)<<1 ^ uint64(uint32(r))<<24 ^ uint64(uint32(i))
		h := faults.SplitMix64(key)
		slots[i] = slot{
			offset: int64(faults.SplitMix64(h^1) % uint64(st.spec.Burst)),
			h:      h,
			idx:    i,
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].offset != slots[j].offset {
			return slots[i].offset < slots[j].offset
		}
		return slots[i].idx < slots[j].idx
	})

	// inFlap marks paths mid-flap (withdrawn, re-announcement pending later
	// this round) per prefix: no other slot may touch them, so a flap
	// always restores the live set it found.
	inFlap := make([]map[bgp.PathID]bool, st.spec.Prefixes)
	var out []Event
	for _, sl := range slots {
		h := sl.h
		prefix := uint32(faults.SplitMix64(h^2) % uint64(st.spec.Prefixes))
		live := st.live[prefix]
		if inFlap[prefix] == nil {
			inFlap[prefix] = map[bgp.PathID]bool{}
		}
		flap := inFlap[prefix]

		eligibleLive := st.eligible(live, flap, true)
		eligibleDown := st.eligible(live, flap, false)

		if st.spec.FlapProb > 0 && faults.Unit(faults.SplitMix64(h^3)) < st.spec.FlapProb && len(eligibleLive) > 0 {
			victim := eligibleLive[faults.SplitMix64(h^4)%uint64(len(eligibleLive))]
			gap := 1 + int64(faults.SplitMix64(h^5)%uint64(st.spec.Burst))
			back := sl.offset + gap
			if back >= st.spec.Period {
				back = st.spec.Period - 1
			}
			if back <= sl.offset {
				// Only reachable when offset == Period-1 (Burst == Period);
				// the re-announcement then lands one tick past the round,
				// which is harmless — rounds run to quiescence sequentially.
				back = sl.offset + 1
			}
			out = append(out,
				Event{At: sl.offset, Prefix: prefix, Path: victim, Withdraw: true},
				Event{At: back, Prefix: prefix, Path: victim})
			flap[victim] = true
			st.flapPairs++
			st.withdraws++
			st.announces++
			continue
		}

		wantWithdraw := faults.Unit(faults.SplitMix64(h^6)) < 0.5
		switch {
		case wantWithdraw && len(eligibleLive) > 1:
			victim := eligibleLive[faults.SplitMix64(h^7)%uint64(len(eligibleLive))]
			out = append(out, Event{At: sl.offset, Prefix: prefix, Path: victim, Withdraw: true})
			delete(live, victim)
			st.withdraws++
		case len(eligibleDown) > 0:
			id := eligibleDown[faults.SplitMix64(h^8)%uint64(len(eligibleDown))]
			out = append(out, Event{At: sl.offset, Prefix: prefix, Path: id})
			live[id] = true
			st.announces++
		case len(eligibleLive) > 1:
			// Wanted an announce but everything is live: withdraw instead so
			// the slot still churns.
			victim := eligibleLive[faults.SplitMix64(h^9)%uint64(len(eligibleLive))]
			out = append(out, Event{At: sl.offset, Prefix: prefix, Path: victim, Withdraw: true})
			delete(live, victim)
			st.withdraws++
		default:
			// One live path, nothing down (everything else mid-flap): the
			// slot has no legal move that keeps the prefix routable.
			st.skipped++
		}
	}
	return out
}

// eligible lists the paths of one prefix that are live (or down, when
// wantLive is false) and not mid-flap, in sorted path order so the hash
// pick is deterministic.
func (st *Stream) eligible(live, flap map[bgp.PathID]bool, wantLive bool) []bgp.PathID {
	var out []bgp.PathID
	for _, id := range st.paths {
		if flap[id] {
			continue
		}
		if live[id] == wantLive {
			out = append(out, id)
		}
	}
	return out
}
