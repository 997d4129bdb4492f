// TCP speakers: run the Figure 14 autonomous system as real concurrent
// I-BGP speakers exchanging a BGP-style wire protocol over loopback TCP.
// Classic I-BGP converges into a forwarding loop between the two clients;
// the modified protocol converges loop-free — live, with the operating
// system scheduler providing the message timing.
package main

import (
	"fmt"
	"log"
	"time"

	ibgp "repro"
)

func main() {
	fig := ibgp.Fig14()
	sys := fig.Sys

	fmt.Println("=== Figure 14 on real TCP sessions (loopback) ===")
	fmt.Println("physical chain RR1 - c2 - c1 - RR2; equal routes r1 at RR1, r2 at RR2")
	fmt.Println()

	for _, policy := range []ibgp.Policy{ibgp.Classic, ibgp.Modified} {
		net := ibgp.NewTCPNetwork(sys, policy, ibgp.Options{})
		if err := net.Start(); err != nil {
			log.Fatal(err)
		}
		net.InjectAll()
		quiet := net.WaitQuiesce(15*time.Second, 200*time.Millisecond)
		best := net.BestAllFor(0)
		sent := net.Counters().Sent
		net.Stop()

		fmt.Printf("--- %v ---\n", policy)
		fmt.Printf("quiesced: %v after %d UPDATE messages\n", quiet, sent)
		snap := ibgp.Snapshot{Best: best}
		for u := 0; u < sys.N(); u++ {
			name := sys.Name(ibgp.NodeID(u))
			if best[u] == ibgp.None {
				fmt.Printf("  %-4s has no route\n", name)
				continue
			}
			fmt.Printf("  %-4s uses r%d (exits at %s)\n",
				name, best[u]+1, sys.Name(sys.Exit(best[u]).ExitPoint))
		}
		// The data plane: where do the clients' packets actually go?
		snap.Advertised = make([]ibgp.PathSet, sys.N())
		snap.Possible = make([]ibgp.PathSet, sys.N())
		plane := ibgp.NewForwardingPlane(sys, snap)
		for _, name := range []string{"c1", "c2"} {
			fmt.Printf("  packet from %s: %s\n", name, plane.Forward(fig.Node(name)))
		}
		fmt.Println()
	}
	fmt.Println("classic leaves c1 and c2 bouncing the packet between each other;")
	fmt.Println("the modified protocol gives each client the nearer exit and the loop is gone.")
}
