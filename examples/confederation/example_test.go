package main

func Example() {
	main()
	// Output:
	// === Figure 1(a) as a two-member confederation ===
	//
	// classic confed-BGP:      cycled  (the border routers trade r1 and r3 forever)
	// survivor advertisement:  converged
	//   A1  (sub-AS 0) settles on r1
	//   a1  (sub-AS 0) settles on r1
	//   a2  (sub-AS 0) settles on r1
	//   B1  (sub-AS 1) settles on r1
	//   b1  (sub-AS 1) settles on r3
	//
	// adaptive on the reflection Figure 1(a): converged with 1/5 routers upgraded
	// (the Section 10 idea: pay the extra-routes cost only where oscillation is detected)
}
