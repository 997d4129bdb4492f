// Package faults is the deterministic fault-injection layer shared by both
// operational substrates: a seeded Plan of wire-level fault actions —
// drop, duplicate, reorder, delay and session reset/reopen. The shared
// router core (package router) draws and books every message's fate; the
// discrete-event simulator (package msgsim) turns it into arrival times
// per hop, the TCP speakers (package speaker) into wire release times, and
// each schedules the plan's session resets.
//
// Determinism is the design constraint, mirroring the campaign engine's
// purity contract: a message's fate is a pure function of (plan seed,
// session, per-session sequence number), computed by hashing rather than
// by drawing from shared RNG state. Two substrates — or two runs of the
// same substrate under different goroutine interleavings — therefore
// impose the *same* per-message fault pattern for the same plan, which is
// what makes chaos aggregates byte-identical across shard and worker
// counts and msgsim fault traces reproducible byte for byte.
//
// The paper's Section 7 guarantee (Lemmas 7.1-7.7) quantifies over "every
// message ordering and timing"; a fault plan whose faults eventually cease
// (Horizon) is one more adversarial ordering, so the modified protocol
// must re-converge to the unique Lemma 7.4 configuration once the plan
// goes quiet. Package chaos asserts exactly that.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bgp"
)

// Fate is the wire-level destiny of one message, decided at send time.
type Fate struct {
	// Drop loses the message entirely (it still counts as sent).
	Drop bool
	// Duplicate delivers a second copy, DupDelay ticks after the first.
	Duplicate bool
	// Reorder exempts the message from the session's FIFO clamp so it may
	// overtake earlier messages (msgsim only: a TCP byte stream cannot
	// reorder, so the speakers install their plan with Reorder zeroed).
	Reorder bool
	// ExtraDelay is added transit delay for the message itself.
	ExtraDelay int64
	// DupDelay is the duplicate copy's additional transit delay relative
	// to the original (Duplicate fates only; always positive for them).
	DupDelay int64
}

// Reset schedules one session reset: the session between A and B goes
// down at time At and reopens at At+Downtime. While down, both ends flush
// every route learned from the dead peer (RFC 4271 §8.2), messages in
// flight on the session are lost, and on reopen both ends re-advertise
// their full current state.
type Reset struct {
	A, B     bgp.NodeID
	At       int64
	Downtime int64
}

// Plan is one seeded fault schedule. The zero value injects nothing.
// Plans are immutable after Validate; substrates share them freely.
type Plan struct {
	// Seed keys the per-message fate hash.
	Seed int64
	// Drop, Duplicate, Reorder and Delay are per-message probabilities in
	// [0, 1].
	Drop, Duplicate, Reorder, Delay float64
	// MaxExtraDelay bounds the extra transit delay of delayed (and
	// duplicated) messages; fates draw uniformly from [1, MaxExtraDelay].
	// Zero with Delay > 0 defaults to 50.
	MaxExtraDelay int64
	// Resets are the scheduled session resets, applied in addition to the
	// per-message fates.
	Resets []Reset
	// Horizon is the time after which the plan goes quiet: no per-message
	// fault fires at or after it, and every reset must have reopened by
	// it. Zero means no horizon (faults never cease) — such plans carry no
	// re-convergence guarantee.
	Horizon int64
}

// Active reports whether the plan can inject any fault at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || p.Duplicate > 0 || p.Reorder > 0 || p.Delay > 0 || len(p.Resets) > 0
}

// Validate checks probabilities, reset shapes and the horizon contract.
// nodes bounds the reset endpoints when positive.
func (p *Plan) Validate(nodes int) error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"dup", p.Duplicate}, {"reorder", p.Reorder}, {"delay", p.Delay}} {
		if !(pr.v >= 0 && pr.v <= 1) { // negated so NaN fails
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.MaxExtraDelay < 0 {
		return fmt.Errorf("faults: negative MaxExtraDelay %d", p.MaxExtraDelay)
	}
	if p.Horizon < 0 {
		return fmt.Errorf("faults: negative Horizon %d", p.Horizon)
	}
	for i, r := range p.Resets {
		if r.A == r.B {
			return fmt.Errorf("faults: reset %d: session %d-%d is a self-loop", i, r.A, r.B)
		}
		if r.A < 0 || r.B < 0 || (nodes > 0 && (int(r.A) >= nodes || int(r.B) >= nodes)) {
			return fmt.Errorf("faults: reset %d: session %d-%d outside topology (%d routers)", i, r.A, r.B, nodes)
		}
		if r.At < 0 || r.Downtime <= 0 {
			return fmt.Errorf("faults: reset %d: need At >= 0 and Downtime > 0, got @%d+%d", i, r.At, r.Downtime)
		}
		if p.Horizon > 0 && r.At+r.Downtime > p.Horizon {
			return fmt.Errorf("faults: reset %d reopens at t=%d, after the horizon t=%d", i, r.At+r.Downtime, p.Horizon)
		}
	}
	return nil
}

// SplitMix64 is the finalising mix of the SplitMix64 generator: a cheap,
// high-quality 64-bit hash used to derive per-message fates — and package
// churn's event schedules — without any shared RNG state.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Unit maps a hash to a float in [0, 1).
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Fate decides the destiny of the seq-th message sent on the session
// from -> to at time now. It is a pure function of the plan and its
// arguments; per-message faults never fire at or after the horizon.
func (p *Plan) Fate(now int64, from, to bgp.NodeID, seq int) Fate {
	if p == nil {
		return Fate{}
	}
	if p.Horizon > 0 && now >= p.Horizon {
		return Fate{}
	}
	// One hash per independent decision, all derived from the same
	// (seed, session, seq) key with distinct stream tags.
	key := uint64(p.Seed)<<1 ^ uint64(uint32(from))<<40 ^ uint64(uint32(to))<<20 ^ uint64(uint32(seq))
	h := SplitMix64(key)
	var f Fate
	if p.Drop > 0 && Unit(SplitMix64(h^1)) < p.Drop {
		f.Drop = true
		return f
	}
	if p.Duplicate > 0 && Unit(SplitMix64(h^2)) < p.Duplicate {
		f.Duplicate = true
	}
	if p.Reorder > 0 && Unit(SplitMix64(h^3)) < p.Reorder {
		f.Reorder = true
	}
	max := p.MaxExtraDelay
	if max <= 0 {
		max = 50
	}
	if p.Delay > 0 && Unit(SplitMix64(h^4)) < p.Delay {
		f.ExtraDelay = 1 + int64(SplitMix64(h^5)%uint64(max))
	}
	if f.Duplicate {
		f.DupDelay = 1 + int64(SplitMix64(h^6)%uint64(max))
	}
	return f
}

// RandomConfig shapes RandomPlan's derived plans.
type RandomConfig struct {
	// Drop, Duplicate, Reorder, Delay and MaxExtraDelay carry over into
	// the derived plan.
	Drop, Duplicate, Reorder, Delay float64
	MaxExtraDelay                   int64
	// Resets is the number of session resets to schedule (over random
	// sessions of a nodes-router full candidate set).
	Resets int
	// Horizon is the derived plan's horizon; resets are placed so they
	// reopen before it. Must be positive when Resets > 0.
	Horizon int64
}

// RandomPlan derives a concrete plan from a seed for an n-router system:
// the per-message probabilities carry over and Resets sessions (u != v,
// both < n) are scheduled at hashed times inside the horizon. It is a
// pure function of (seed, n, cfg) — ChaosJob uses it to fan a topology
// seed out into fault schedules.
func RandomPlan(seed int64, n int, cfg RandomConfig) (*Plan, error) {
	p := &Plan{
		Seed:          seed,
		Drop:          cfg.Drop,
		Duplicate:     cfg.Duplicate,
		Reorder:       cfg.Reorder,
		Delay:         cfg.Delay,
		MaxExtraDelay: cfg.MaxExtraDelay,
		Horizon:       cfg.Horizon,
	}
	if cfg.Resets > 0 {
		if n < 2 {
			return nil, errors.New("faults: resets need at least two routers")
		}
		if cfg.Horizon <= 0 {
			return nil, errors.New("faults: resets need a positive horizon")
		}
		for i := 0; i < cfg.Resets; i++ {
			h := SplitMix64(uint64(seed) ^ 0xC4A05 ^ uint64(i)<<32)
			a := bgp.NodeID(h % uint64(n))
			b := bgp.NodeID(SplitMix64(h^7) % uint64(n-1))
			if b >= a {
				b++
			}
			// Place the reset inside [0, Horizon/2) with downtime bounded
			// so it reopens comfortably before the horizon.
			at := int64(SplitMix64(h^9) % uint64(cfg.Horizon/2+1))
			down := 1 + int64(SplitMix64(h^11)%uint64(cfg.Horizon/4+1))
			if at+down > cfg.Horizon {
				down = cfg.Horizon - at
			}
			p.Resets = append(p.Resets, Reset{A: a, B: b, At: at, Downtime: down})
		}
	}
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseSpec parses the -faults command-line syntax: a comma-separated
// key=value list. Keys: seed, drop, dup, reorder, delay (probabilities),
// maxdelay, horizon (ints), and reset, a ';'-separated list of
// A-B@AT+DOWN session resets by router index, e.g.
//
//	seed=7,drop=0.05,dup=0.02,delay=0.1,maxdelay=30,reset=0-1@100+50;2-3@200+40,horizon=600
//
// The empty string parses to an inactive plan.
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("faults: spec entry %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "drop":
			p.Drop, err = strconv.ParseFloat(v, 64)
		case "dup":
			p.Duplicate, err = strconv.ParseFloat(v, 64)
		case "reorder":
			p.Reorder, err = strconv.ParseFloat(v, 64)
		case "delay":
			p.Delay, err = strconv.ParseFloat(v, 64)
		case "maxdelay":
			p.MaxExtraDelay, err = strconv.ParseInt(v, 10, 64)
		case "horizon":
			p.Horizon, err = strconv.ParseInt(v, 10, 64)
		case "reset":
			for _, rs := range strings.Split(v, ";") {
				r, rerr := parseReset(rs)
				if rerr != nil {
					return nil, rerr
				}
				p.Resets = append(p.Resets, r)
			}
		default:
			return nil, fmt.Errorf("faults: unknown spec key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: spec key %q: %w", k, err)
		}
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return p, nil
}

// parseReset parses one A-B@AT+DOWN reset clause.
func parseReset(s string) (Reset, error) {
	var r Reset
	sess, timing, ok := strings.Cut(strings.TrimSpace(s), "@")
	if !ok {
		return r, fmt.Errorf("faults: reset %q: want A-B@AT+DOWN", s)
	}
	as, bs, ok := strings.Cut(sess, "-")
	if !ok {
		return r, fmt.Errorf("faults: reset %q: session %q is not A-B", s, sess)
	}
	ats, downs, ok := strings.Cut(timing, "+")
	if !ok {
		return r, fmt.Errorf("faults: reset %q: timing %q is not AT+DOWN", s, timing)
	}
	fields := []struct {
		dst  *int64
		text string
	}{{new(int64), as}, {new(int64), bs}, {&r.At, ats}, {&r.Downtime, downs}}
	for _, f := range fields {
		v, err := strconv.ParseInt(strings.TrimSpace(f.text), 10, 64)
		if err != nil {
			return r, fmt.Errorf("faults: reset %q: %w", s, err)
		}
		*f.dst = v
	}
	r.A = bgp.NodeID(*fields[0].dst)
	r.B = bgp.NodeID(*fields[1].dst)
	return r, nil
}

// String renders the plan in ParseSpec syntax (round-trippable).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if p.Seed != 0 {
		add("seed", strconv.FormatInt(p.Seed, 10))
	}
	prob := func(k string, v float64) {
		if v > 0 {
			add(k, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	prob("drop", p.Drop)
	prob("dup", p.Duplicate)
	prob("reorder", p.Reorder)
	prob("delay", p.Delay)
	if p.MaxExtraDelay > 0 {
		add("maxdelay", strconv.FormatInt(p.MaxExtraDelay, 10))
	}
	if len(p.Resets) > 0 {
		rs := make([]string, len(p.Resets))
		for i, r := range p.Resets {
			rs[i] = fmt.Sprintf("%d-%d@%d+%d", r.A, r.B, r.At, r.Downtime)
		}
		add("reset", strings.Join(rs, ";"))
	}
	if p.Horizon > 0 {
		add("horizon", strconv.FormatInt(p.Horizon, 10))
	}
	return strings.Join(parts, ",")
}
