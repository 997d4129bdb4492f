package main

func Example() {
	main()
	// Output:
	// outcome: converged after 13 activations
	//
	// rr1      routes via edge3    (AS 200, MED 0, IGP metric 15)
	// edge1    routes via edge3    (AS 200, MED 0, IGP metric 25)
	// edge2    routes via edge2    (AS 100, MED 0, IGP metric 0)
	// rr2      routes via edge3    (AS 200, MED 0, IGP metric 10)
	// edge3    routes via edge3    (AS 200, MED 0, IGP metric 0)
	//
	// forwarding loop-free: true
	// packet from edge2: v2 -> exit(p1)
}
