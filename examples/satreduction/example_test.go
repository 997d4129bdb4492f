package main

func Example() {
	main()
	// Output:
	// formula: (x1 v x2) ^ (-x1 v x2) ^ (x1 v -x2)
	// encoded as an AS with 24 routers in 11 clusters and 13 E-BGP routes
	//   each variable: a bistable two-cluster gadget (its two stable states = true/false)
	//   each clause:   a MED oscillator that only settles when a satisfied literal's route is visible
	//
	//   x1=false x2=false -> formula false -> routing OSCILLATES
	//   x1=true  x2=false -> formula false -> routing OSCILLATES
	//   x1=false x2=true  -> formula false -> routing OSCILLATES
	//   x1=true  x2=true  -> formula true  -> routing STABLE
	//
	// decoded from the stable routing: x1=true x2=true (satisfies the formula: true)
	//
	// unsatisfiable (x1) ^ (-x1) -> cycled: the oscillation is the proof
}
