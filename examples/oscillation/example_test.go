package main

func Example() {
	main()
	// Output:
	// === Figure 1(a): two clusters, three exit routes ===
	//    r1 at a1 (AS2, MED 0)   r2 at a2 (AS1, MED 1)   r3 at b1 (AS1, MED 0)
	//
	// --- classic I-BGP ---
	//   step 1   A   changes best route: (none) -> r2
	//   step 4   B   changes best route: (none) -> r3
	//   step 6   A   changes best route: r2 -> r1
	//   step 9   B   changes best route: r3 -> r1
	//   step 11  A   changes best route: r1 -> r2
	//   step 14  B   changes best route: r1 -> r3
	//   ... outcome: cycled — the state recurs every 2 rounds; A flips between r1 and r2,
	//       B flips between r1 and r3, forever (6 best-route changes in 15 steps)
	//
	//   complete enumeration: this configuration has NO stable solution.
	//
	// --- modified I-BGP (the paper's fix) ---
	//   outcome: converged after 16 steps
	//   A   settles on r1
	//   a1  settles on r1
	//   a2  settles on r1
	//   B   settles on r1
	//   b1  settles on r3
	//
	//   identical outcome across 10 random fair schedules: true
}
