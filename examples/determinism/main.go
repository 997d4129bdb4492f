// Determinism: the Figure 2 configuration has two stable solutions under
// classic I-BGP — which one an AS lands on (if any) depends on message
// timing. The modified protocol lands on one and the same configuration no
// matter what, which is what makes post-incident debugging tractable.
package main

import (
	"fmt"

	ibgp "repro"
)

func main() {
	fig := ibgp.Fig2()
	sys := fig.Sys
	RR1, RR2 := fig.Node("RR1"), fig.Node("RR2")

	fmt.Println("=== Figure 2: both exit routes equal, crossed IGP distances ===")

	// Classic, synchronous: permanent oscillation.
	sync := ibgp.Run(ibgp.NewEngine(sys, ibgp.Classic, ibgp.Options{}),
		ibgp.AllAtOnce(sys.N()), ibgp.RunOptions{MaxSteps: 1000})
	fmt.Printf("classic, reflectors in lockstep:    %v (transient oscillation)\n", sync.Outcome)

	// Classic, RR1 moves first / RR2 moves first: two different worlds.
	first := func(order ...ibgp.NodeID) ibgp.Snapshot {
		sets := make([][]ibgp.NodeID, len(order))
		for i, u := range order {
			sets[i] = []ibgp.NodeID{u}
		}
		res := ibgp.Run(ibgp.NewEngine(sys, ibgp.Classic, ibgp.Options{}),
			ibgp.FixedSchedule(sets...), ibgp.RunOptions{MaxSteps: 1000})
		return res.Final
	}
	s1 := first(RR1, RR2, fig.Node("c1"), fig.Node("c2"))
	s2 := first(RR2, RR1, fig.Node("c1"), fig.Node("c2"))
	fmt.Printf("classic, RR1 activates first:       both reflectors on %s\n", pname(s1.Best[RR1]))
	fmt.Printf("classic, RR2 activates first:       both reflectors on %s\n", pname(s2.Best[RR2]))
	fmt.Printf("  -> same router configs, same routes, different steady states (%v)\n\n",
		s1.Best[RR1] != s2.Best[RR1])

	// The message-level simulator shows the same split from timing alone.
	for _, slow := range []string{"c2", "c1"} {
		slowNode := fig.Node(slow)
		delay := func(from, to ibgp.NodeID, seq int) int64 {
			if from == slowNode {
				return 100
			}
			return 1
		}
		sim := ibgp.NewSim(sys, ibgp.Classic, ibgp.Options{}, delay)
		sim.InjectAll()
		res := sim.Run(0)
		fmt.Printf("message sim, %s slow:               reflectors land on %s\n",
			slow, pname(res.Best[RR1]))
	}
	fmt.Println()

	// Modified: every schedule, every delay pattern — one outcome.
	base := ibgp.Run(ibgp.NewEngine(sys, ibgp.Modified, ibgp.Options{}),
		ibgp.RoundRobin(sys.N()), ibgp.RunOptions{MaxSteps: 1000})
	agree := 0
	const trials = 20
	for seed := int64(1); seed <= trials; seed++ {
		sim := ibgp.NewSim(sys, ibgp.Modified, ibgp.Options{}, ibgp.MustRandomDelay(seed, 1, 50))
		sim.InjectAll()
		res := sim.Run(0)
		if res.Quiesced && res.Best[RR1] == base.Final.Best[RR1] && res.Best[RR2] == base.Final.Best[RR2] {
			agree++
		}
	}
	fmt.Printf("modified protocol: RR1 on %s, RR2 on %s under %d/%d random delay patterns\n",
		pname(base.Final.Best[RR1]), pname(base.Final.Best[RR2]), agree, trials)
	fmt.Println("  (each reflector uses the other cluster's nearer exit — and everyone agrees, always)")
}

func pname(id ibgp.PathID) string {
	if id == ibgp.None {
		return "(none)"
	}
	return fmt.Sprintf("r%d", id+1)
}
