package workload

import (
	"context"

	"repro/internal/explore"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// Verdict classifies one configuration's behaviour under the three
// advertisement policies, with the evidence behind it.
type Verdict struct {
	// ClassicOscillates: classic I-BGP cannot reach a stable configuration
	// (exhaustively verified when its search completed, otherwise evidenced
	// by cycling deterministic schedules and non-converging random ones).
	ClassicOscillates bool
	// WaltonOscillates: same for the Walton et al. modification.
	WaltonOscillates bool
	// ModifiedConverges: the paper's protocol converges (it always should).
	ModifiedConverges bool
	// MEDInduced: with all MEDs equalised the classic protocol converges,
	// i.e. the oscillation is caused by MED comparison.
	MEDInduced bool
	// Exhaustive: both oscillation verdicts are backed by complete
	// reachable-state search rather than schedule sampling.
	Exhaustive bool
	// States is the largest reachable state space either search explored;
	// FixedPoints counts classic's reachable fixed points when its search
	// completed; Truncations counts the searches that hit the budget.
	States      int
	FixedPoints int
	Truncations int
	// ExploredStates sums the states of both searches and Steps the
	// activation steps of every run: the work done, for progress meters.
	ExploredStates int64
	Steps          int64
}

// IsFig13Like reports the property the paper's Figure 13 exhibits:
// a MED-induced persistent oscillation that survives the Walton et al.
// fix but not the paper's modified protocol.
func (v Verdict) IsFig13Like() bool {
	return v.ClassicOscillates && v.WaltonOscillates && v.ModifiedConverges && v.MEDInduced
}

// The sampling battery: round-robin and all-at-once runs of sampleSteps
// steps, then sampleSeeds seeded permutation-round runs of half that.
const (
	sampleSteps = 4000
	sampleSeeds = 4
)

// Classify decides one configuration. With maxStates > 0, classic and
// Walton are first searched exhaustively (explore.Reachable,
// SingletonsPlusAll, on workers goroutines); a policy whose search
// truncated, or every policy when maxStates is 0, is then decided by the
// sampling battery. The modified protocol is decided by one round-robin
// run, and the MED-equalised control is sampled whenever either broken
// policy oscillates. The verdict is identical for every worker count. A
// cancelled ctx cuts the work short, and the verdict is then meaningless.
func Classify(ctx context.Context, sys *topology.System, maxStates, workers int) Verdict {
	var v Verdict
	policies := [2]protocol.Policy{protocol.Classic, protocol.Walton}
	var osc, exhaustive [2]bool
	if maxStates > 0 {
		for i, policy := range policies {
			a := explore.Reachable(protocol.New(sys, policy, selection.Options{}), explore.Options{
				Mode: explore.SingletonsPlusAll, MaxStates: maxStates, Ctx: ctx, Workers: workers,
			})
			v.ExploredStates += int64(a.States)
			v.States = max(v.States, a.States)
			if a.Truncated {
				v.Truncations++
				continue
			}
			osc[i], exhaustive[i] = !a.Stabilizable(), true
			if policy == protocol.Classic {
				v.FixedPoints = len(a.FixedPoints)
			}
		}
	}
	for i, policy := range policies {
		if !exhaustive[i] {
			osc[i] = v.oscillatesBySampling(ctx, sys, policy)
		}
	}
	v.ClassicOscillates, v.WaltonOscillates = osc[0], osc[1]
	v.Exhaustive = exhaustive[0] && exhaustive[1]

	e := protocol.New(sys, protocol.Modified, selection.Options{})
	v.ModifiedConverges = v.converges(e, protocol.RoundRobin(sys.N()), sampleSteps)

	if (v.ClassicOscillates || v.WaltonOscillates) && ctx.Err() == nil {
		if eq, err := equalizeMEDs(sys); err == nil {
			v.MEDInduced = !v.oscillatesBySampling(ctx, eq, protocol.Classic) &&
				!v.oscillatesBySampling(ctx, eq, protocol.Walton)
		}
	}
	return v
}

// converges runs e under sch for at most maxSteps, counting the steps.
func (v *Verdict) converges(e *protocol.Engine, sch protocol.Schedule, maxSteps int) bool {
	r := protocol.Run(e, sch, protocol.RunOptions{MaxSteps: maxSteps})
	v.Steps += int64(r.Steps)
	return r.Outcome == protocol.Converged
}

// oscillatesBySampling reports whether the policy fails to converge on sys
// under every run of the sampling battery, stopping at the first run that
// converges or once ctx is cancelled.
func (v *Verdict) oscillatesBySampling(ctx context.Context, sys *topology.System, policy protocol.Policy) bool {
	e := protocol.New(sys, policy, selection.Options{})
	if v.converges(e, protocol.RoundRobin(sys.N()), sampleSteps) {
		return false
	}
	e.ResetAll()
	if v.converges(e, protocol.AllAtOnce(sys.N()), sampleSteps) {
		return false
	}
	for seed := int64(1); seed <= sampleSeeds; seed++ {
		if ctx.Err() != nil {
			return false
		}
		e.ResetAll()
		if v.converges(e, protocol.PermutationRounds(sys.N(), seed), sampleSteps/2) {
			return false
		}
	}
	return true
}

// equalizeMEDs rebuilds the system with every MED set to zero (the E22
// control: an oscillation that survives it is not MED-induced).
func equalizeMEDs(sys *topology.System) (*topology.System, error) {
	spec := topology.ToSpec(sys)
	for i := range spec.Exits {
		spec.Exits[i].MED = 0
	}
	return topology.BuildSpec(spec)
}
