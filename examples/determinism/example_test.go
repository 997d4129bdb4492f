package main

func Example() {
	main()
	// Output:
	// === Figure 2: both exit routes equal, crossed IGP distances ===
	// classic, reflectors in lockstep:    cycled (transient oscillation)
	// classic, RR1 activates first:       both reflectors on r1
	// classic, RR2 activates first:       both reflectors on r2
	//   -> same router configs, same routes, different steady states (true)
	//
	// message sim, c2 slow:               reflectors land on r1
	// message sim, c1 slow:               reflectors land on r2
	//
	// modified protocol: RR1 on r2, RR2 on r1 under 20/20 random delay patterns
	//   (each reflector uses the other cluster's nearer exit — and everyone agrees, always)
}
