package main

import "os"

// Example runs the program as `go run ./examples/lint` does from the
// repository root: with no topology argument, and with the bundled
// fixture's relative path resolvable.
func Example() {
	os.Args = os.Args[:1]
	if err := os.Chdir("../.."); err != nil {
		panic(err)
	}
	main()
	// Output:
	// FAIL  examples/topologies/broken-cluster.json
	//       [cluster-structure] error: cluster 1 has invalid parent 2: a parent must be an earlier cluster, so the reflection hierarchy stays acyclic [Section 4, model constraints 1-4]
	//       [cluster-structure] error at orphan1,orphan2: cluster 0 has clients orphan1, orphan2 but no route reflector; the clients cannot learn or announce any I-BGP route [Section 4, model constraints 1-4]
	//
	// RISK  Figure 1(a)
	//       [med-cluster-interaction] risk at a2,b1 paths p1,p2: neighbouring AS 1 announces 2 routes with unequal MEDs at exit points spanning 2 clusters; MED elimination then depends on route visibility, which route reflection restricts — the precondition for the paper's persistent oscillations [Section 3, Figure 1(a); Section 5]
	//
	// as JSON:
	// [
	//   {
	//     "source": "Figure 1(a)",
	//     "verdict": "RISK",
	//     "findings": [
	//       {
	//         "pass": "med-cluster-interaction",
	//         "severity": "risk",
	//         "nodes": [
	//           "a2",
	//           "b1"
	//         ],
	//         "paths": [
	//           "p1",
	//           "p2"
	//         ],
	//         "detail": "neighbouring AS 1 announces 2 routes with unequal MEDs at exit points spanning 2 clusters; MED elimination then depends on route visibility, which route reflection restricts — the precondition for the paper's persistent oscillations",
	//         "ref": "Section 3, Figure 1(a); Section 5"
	//       }
	//     ]
	//   }
	// ]
}
