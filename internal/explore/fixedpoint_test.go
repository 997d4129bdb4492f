package explore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// upgradeAdvertisers marks, through the state codec, every router of an
// Adaptive engine that advertises more than its best route in fp as
// upgraded: a Snapshot omits the revisit detector, and a router whose
// survivors are its best route advertises the same either way.
func upgradeAdvertisers(t *testing.T, e *protocol.Engine, fp protocol.Snapshot) {
	t.Helper()
	n, w := e.Sys().N(), (e.Sys().NumExits()+63)/64
	words := e.EncodeState(nil)
	for u := 0; u < n; u++ {
		if !fp.Advertised[u].Equal(bgp.NewPathSet(fp.Best[u])) {
			words[n*(2*w+1)+u*(w+1)] = protocol.AdaptiveThreshold | 1<<32
		}
	}
	if err := e.DecodeState(words); err != nil {
		t.Fatal(err)
	}
}

// TestReachableFixedPointsAreInduced holds every reachable fixed point to
// the paper's §4 characterisation of stable solutions: regathering every
// router's PossibleExits from the fixed point's advertisements
// (InducedConfig) must report a fixed point and reproduce it exactly. The
// systems are every paper figure and the Walton rule-6 fixture
// (internal/protocol/testdata), whose reflector U can change its Walton set
// through learnedFrom alone; every policy.
func TestReachableFixedPointsAreInduced(t *testing.T) {
	type system struct {
		name string
		sys  *topology.System
	}
	var systems []system
	for _, f := range figures.All() {
		systems = append(systems, system{"fig" + f.Name, f.Build().Sys})
	}
	file, err := os.Open(filepath.Join("..", "protocol", "testdata", "walton-rule6.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	fix, err := topology.Load(file)
	if err != nil {
		t.Fatal(err)
	}
	systems = append(systems, system{"walton-rule6", fix})
	for _, s := range systems {
		name, sys := s.name, s.sys
		for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified, protocol.Adaptive} {
			a := Reachable(protocol.New(sys, policy, selection.Options{}), Options{MaxStates: 20000})
			for i, fp := range a.FixedPoints {
				e := protocol.New(sys, policy, selection.Options{})
				if policy == protocol.Adaptive {
					upgradeAdvertisers(t, e, fp)
				}
				fixed := e.InducedConfig(fp.Advertised)
				var got protocol.Snapshot
				e.SnapshotInto(&got)
				if !fixed || !got.Equal(fp) {
					t.Errorf("%s %v fixed point %d (%v): InducedConfig reports %v and induces %v",
						name, policy, i, fp, fixed, got)
				}
			}
		}
	}
}
