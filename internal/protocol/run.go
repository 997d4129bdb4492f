package protocol

import (
	"fmt"
	"slices"

	"repro/internal/bgp"
)

// Outcome classifies how a protocol run ended.
type Outcome int

const (
	// Converged: the engine reached a configuration where no activation
	// changes any node's state (a stable solution).
	Converged Outcome = iota
	// Cycled: a periodic deterministic schedule revisited a configuration
	// at the same schedule phase, proving the run oscillates forever.
	Cycled
	// Exhausted: the step budget ran out before convergence and no cycle
	// was provable (randomised schedules).
	Exhausted
)

func (o Outcome) String() string {
	switch o {
	case Converged:
		return "converged"
	case Cycled:
		return "cycled"
	case Exhausted:
		return "exhausted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result reports a protocol run.
type Result struct {
	Outcome Outcome
	// Steps is the number of activation sets consumed.
	Steps int
	// BestChanges counts how often some router's best route changed — a
	// measure of route churn.
	BestChanges int
	// Messages counts path announcements transferred (one per path per
	// receiving peer per activation that delivered it).
	Messages int
	// CycleLen is the length (in schedule periods) of the detected cycle
	// when Outcome == Cycled.
	CycleLen int
	// Final is the configuration at the end of the run.
	Final Snapshot
}

// RunOptions tunes Run.
type RunOptions struct {
	// MaxSteps bounds the number of activation sets (default 10000).
	MaxSteps int
}

// Run drives the engine with the schedule until the configuration is stable
// (no activation can change anything), until a state cycle is proved for a
// periodic schedule, or until the step budget is exhausted. A periodic
// schedule's configuration is interned at every period boundary; boundary
// k interns id k-1, so a revisit of id j at boundary k proves a cycle of
// k-(j+1) periods.
func Run(e *Engine, sch Schedule, opts RunOptions) Result {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	n := e.Sys().N()
	period := sch.Period()

	res := Result{}
	// quietNodes tracks which nodes were activated since the last change.
	quietNodes := make(map[bgp.NodeID]bool, n)
	var seen *Arena
	var state []uint64
	if period > 0 {
		seen = NewArena(e.StateWords())
		state = make([]uint64, 0, e.StateWords())
	}
	stepsInPeriod := 0

	prevBest := append([]bgp.PathID(nil), e.best...)
	countBestChanges := func() {
		for u := range prevBest {
			if e.best[u] != prevBest[u] {
				res.BestChanges++
				prevBest[u] = e.best[u]
			}
		}
	}

	if e.Stable() {
		res.Outcome = Converged
		e.SnapshotInto(&res.Final)
		return res
	}

	for res.Steps < maxSteps {
		set := sch.Next()
		res.Steps++
		changed := e.ActivateSet(set)
		for _, u := range set {
			res.Messages += e.possible[u].Len()
		}
		countBestChanges()

		if changed {
			clear(quietNodes)
		} else {
			for _, u := range set {
				quietNodes[u] = true
			}
		}
		if len(quietNodes) == n {
			// A full cover of quiet activations. For single-node schedules
			// this already proves stability; re-check cheaply to also cover
			// attribution-only effects.
			if e.Stable() {
				res.Outcome = Converged
				e.SnapshotInto(&res.Final)
				return res
			}
			clear(quietNodes)
		}

		if period > 0 {
			stepsInPeriod++
			if stepsInPeriod == period {
				stepsInPeriod = 0
				state = e.EncodeState(state[:0])
				if id, fresh := seen.Intern(state); !fresh {
					res.Outcome = Cycled
					res.CycleLen = res.Steps/period - int(id+1)
					e.SnapshotInto(&res.Final)
					return res
				}
			}
		}
	}
	if e.Stable() {
		res.Outcome = Converged
	} else {
		res.Outcome = Exhausted
	}
	e.SnapshotInto(&res.Final)
	return res
}

// WitnessStep is one best-route change inside a proved oscillation cycle.
type WitnessStep struct {
	Node     bgp.NodeID
	From, To bgp.PathID
}

// CycleWitness extracts a human-readable proof of oscillation: it runs the
// engine under the (periodic) schedule until a state cycle is proved, then
// replays exactly one cycle recording every best-route change. ok is false
// when the run converged or exhausted instead. The engine is left inside
// the cycle.
func CycleWitness(e *Engine, sch Schedule, maxSteps int) (steps []WitnessStep, cycleLen int, ok bool) {
	res := Run(e, sch, RunOptions{MaxSteps: maxSteps})
	if res.Outcome != Cycled {
		return nil, 0, false
	}
	period := sch.Period()
	if period <= 0 {
		return nil, 0, false
	}
	// The engine now sits at a state that recurs every CycleLen periods.
	old := e.observer
	e.Observe(func(ev Event) {
		if ev.OldBest != ev.NewBest {
			steps = append(steps, WitnessStep{Node: ev.Node, From: ev.OldBest, To: ev.NewBest})
		}
	})
	start := e.EncodeState(nil)
	for i := 0; i < res.CycleLen; i++ {
		for j := 0; j < period; j++ {
			e.ActivateSet(sch.Next())
		}
	}
	e.observer = old
	if !slices.Equal(e.EncodeState(nil), start) {
		return nil, 0, false // should not happen: the cycle was proved
	}
	return steps, res.CycleLen, true
}

// RunSeeds runs the same system/policy under k different seeded
// permutation-round schedules, restarting from the initial configuration
// each time, and returns the per-seed results. It is the workhorse of the
// determinism experiments (E10).
func RunSeeds(e *Engine, k int, maxSteps int) []Result {
	out := make([]Result, 0, k)
	for seed := 0; seed < k; seed++ {
		e.ResetAll()
		sch := PermutationRounds(e.Sys().N(), int64(seed)+1)
		out = append(out, Run(e, sch, RunOptions{MaxSteps: maxSteps}))
	}
	return out
}
