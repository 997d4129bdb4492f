package protocol_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bgp"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// waltonRule6Fixture loads testdata/walton-rule6.json. Reflector U of
// cluster k0 owns exit q (p0, AS 1). Cluster k1 has the reflectors X1, X2
// and X3 (BGP IDs 2001, 2002, 2000) and the clients c1 and c2, which hold
// p1 and p2 (AS 2). Every Xi is one hop from U; X3 is close to c1, X1 to
// c2 and X2 to both. U hears p1 and p2 from several reflectors, so which
// of them is its AS-2 Walton winner turns on rule 6 alone: an activation
// can move U's advertisement while its PossibleExits and best route stay
// put.
func waltonRule6Fixture(t testing.TB) *topology.System {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "walton-rule6.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := topology.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWouldChangeMatchesActivate walks random activation sequences on the
// Walton rule-6 fixture and checks, before every step, that WouldChange(v)
// is what Activate(v) on a clone reports, under every policy: the stability
// certificate (Stable) is exactly "no activation changes anything".
func TestWouldChangeMatchesActivate(t *testing.T) {
	sys := waltonRule6Fixture(t)
	n := sys.N()
	for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified, protocol.Adaptive} {
		rng := rand.New(rand.NewSource(1))
		for walk := 0; walk < 50; walk++ {
			e := protocol.New(sys, policy, selection.Options{})
			for step := 0; step < 60; step++ {
				v := bgp.NodeID(rng.Intn(n))
				if would, did := e.WouldChange(v), e.Clone().Activate(v); would != did {
					t.Fatalf("%v walk %d step %d: WouldChange(%s) = %v, Activate = %v",
						policy, walk, step, sys.Name(v), would, did)
				}
				e.Activate(bgp.NodeID(rng.Intn(n)))
			}
		}
	}
}
