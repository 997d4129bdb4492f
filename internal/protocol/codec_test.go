package protocol_test

// External test package: the round-trip tests drive the codec through
// workload-generated systems, and workload itself imports protocol.

import (
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/workload"
)

// smallFamily is the generator family the codec tests draw systems from:
// small enough to explore, rich enough to exercise multi-path sets and
// MED interaction.
var smallFamily = workload.Params{
	Clusters: 2, MinClients: 1, MaxClients: 2, ASes: 2,
	Exits: 4, MaxMED: 2, MaxCost: 8, ExtraLinks: 1,
}

// driveScript applies an activation script: each byte activates one node
// (low bits) or, with the high bit set, the whole node set at once.
func driveScript(e *protocol.Engine, script []byte) {
	n := e.Sys().N()
	all := make([]bgp.NodeID, n)
	for u := range all {
		all[u] = bgp.NodeID(u)
	}
	for _, b := range script {
		if b&0x80 != 0 {
			e.ActivateSet(all)
		} else {
			e.Activate(bgp.NodeID(int(b) % n))
		}
	}
}

func wordsOf(e *protocol.Engine) []uint64 {
	return e.EncodeState(make([]uint64, 0, e.StateWords()))
}

// snapshot returns a fresh snapshot of e's configuration.
func snapshot(e *protocol.Engine) protocol.Snapshot {
	var s protocol.Snapshot
	e.SnapshotInto(&s)
	return s
}

// fig1aEngine builds a fresh engine on the paper's Figure 1(a) system.
func fig1aEngine(policy protocol.Policy) *protocol.Engine {
	return protocol.New(figures.Fig1a().Sys, policy, selection.Options{})
}

// FuzzStateCodec drives a random system with a random activation script
// under a random policy and asserts the codec round-trips: encode →
// decode into a fresh engine → re-encode is word-identical, and the
// restored engine agrees on its Snapshot. The Adaptive policy is
// in rotation, so the detector block (revisit count, held routes,
// upgrade flag) is covered too.
func FuzzStateCodec(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 0x83, 1}, uint8(0))
	f.Add(int64(7), []byte{0x81, 3, 3, 2, 1, 0}, uint8(1))
	f.Add(int64(11), []byte{5, 4, 0x80, 2, 2, 2, 2, 2, 2}, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, script []byte, policyByte uint8) {
		sys, err := workload.Generate(smallFamily, seed)
		if err != nil {
			t.Skip() // the generator rejected the draw
		}
		policy := protocol.Policy(int(policyByte) % 4)
		if len(script) > 256 {
			script = script[:256]
		}
		e := protocol.New(sys, policy, selection.Options{})
		driveScript(e, script)

		words := wordsOf(e)
		if len(words) != e.StateWords() {
			t.Fatalf("EncodeState produced %d words, StateWords says %d", len(words), e.StateWords())
		}
		e2 := protocol.New(sys, policy, selection.Options{})
		if err := e2.DecodeState(words); err != nil {
			t.Fatalf("DecodeState rejected its own encoding: %v", err)
		}
		again := wordsOf(e2)
		if !slices.Equal(words, again) {
			t.Fatalf("re-encode diverged:\n  first  %x\n  second %x", words, again)
		}
		if !snapshot(e).Equal(snapshot(e2)) {
			t.Fatal("Snapshot differs after decode round-trip")
		}
	})
}

// TestDecodeStateValidates proves malformed vectors are rejected rather
// than smuggled into the engine: wrong length, out-of-range best, bits
// naming nonexistent paths, and malformed Adaptive detector words.
func TestDecodeStateValidates(t *testing.T) {
	e := fig1aEngine(protocol.Classic)
	words := wordsOf(e)
	numExits := e.Sys().NumExits()
	pathWords := (numExits + 63) / 64

	if err := e.DecodeState(words[:len(words)-1]); err == nil {
		t.Error("short vector accepted")
	}
	if err := e.DecodeState(append(append([]uint64(nil), words...), 0)); err == nil {
		t.Error("long vector accepted")
	}

	mutate := func(idx int, v uint64) []uint64 {
		c := append([]uint64(nil), words...)
		c[idx] = v
		return c
	}
	// Word layout per node: pathWords possible, 1 best, pathWords advertised.
	if err := e.DecodeState(mutate(pathWords, uint64(numExits))); err == nil {
		t.Error("best path beyond NumExits accepted")
	}
	if err := e.DecodeState(mutate(pathWords, ^uint64(1))); err == nil {
		t.Error("best path below None accepted")
	}
	if numExits%64 != 0 {
		junk := uint64(1) << uint(numExits%64)
		if err := e.DecodeState(mutate(pathWords-1, words[pathWords-1]|junk)); err == nil {
			t.Error("possible-set bit beyond NumExits accepted")
		}
	}

	// A valid mutation must round-trip: flip the first node's best to None.
	ok := mutate(pathWords, ^uint64(0))
	if err := e.DecodeState(ok); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
	if best := snapshot(e).Best[0]; best != bgp.None {
		t.Fatalf("best[0] = %d after decoding None", best)
	}
}

// TestAdaptiveCodecCarriesDetector proves the Adaptive block round-trips
// the oscillation-detector state the legacy Snapshot type omits: flap
// counts, held-best history and the upgrade flag survive decode.
func TestAdaptiveCodecCarriesDetector(t *testing.T) {
	e := fig1aEngine(protocol.Adaptive)
	n := e.Sys().N()
	numExits := e.Sys().NumExits()
	pathWords := (numExits + 63) / 64
	words := wordsOf(e)

	// The detector block follows the n*(2*pathWords+1) configuration words:
	// per node one flags word then pathWords heldBest words.
	base := n * (2*pathWords + 1)
	words[base] = 2               // node 0: two revisits, not upgraded
	words[base+1] = 1             // heldBest(0) = {p0}
	off := base + (1 + pathWords) // node 1's detector word
	words[off] = 3 | 1<<32        // node 1: at threshold, upgraded

	e2 := fig1aEngine(protocol.Adaptive)
	if err := e2.DecodeState(words); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if got := e2.Flaps(0); got != 2 {
		t.Errorf("Flaps(0) = %d, want 2", got)
	}
	if e2.Upgraded(0) {
		t.Error("Upgraded(0) = true, want false")
	}
	if got := e2.Flaps(1); got != 3 {
		t.Errorf("Flaps(1) = %d, want 3", got)
	}
	if !e2.Upgraded(1) {
		t.Error("Upgraded(1) = false, want true")
	}
	if again := wordsOf(e2); !slices.Equal(words, again) {
		t.Fatal("detector block does not re-encode identically")
	}

	if err := e2.DecodeState(mutateAt(words, base, 4)); err == nil {
		t.Error("flap count beyond threshold accepted")
	}
	if err := e2.DecodeState(mutateAt(words, base, 1<<33)); err == nil {
		t.Error("junk detector bits accepted")
	}
}

func mutateAt(words []uint64, idx int, v uint64) []uint64 {
	c := append([]uint64(nil), words...)
	c[idx] = v
	return c
}

// TestSnapshotIntoRestoreFrom proves SnapshotInto reuses storage and
// RestoreFrom restores what it captured.
func TestSnapshotIntoRestoreFrom(t *testing.T) {
	e := fig1aEngine(protocol.Classic)
	var s protocol.Snapshot
	e.SnapshotInto(&s)
	if !s.Equal(snapshot(e)) {
		t.Fatal("SnapshotInto disagrees with a fresh snapshot")
	}
	e.Activate(0)
	e.Activate(1)
	changed := snapshot(e)
	e.RestoreFrom(&s)
	if !snapshot(e).Equal(s) {
		t.Fatal("RestoreFrom did not restore the captured configuration")
	}
	if changed.Equal(s) {
		t.Skip("activations were no-ops on this figure; restore untestable")
	}
	// Refill the same snapshot from the restored engine: storage is reused,
	// contents must still match.
	e.SnapshotInto(&s)
	if !snapshot(e).Equal(s) {
		t.Fatal("refilled SnapshotInto disagrees with a fresh snapshot")
	}
}

// TestCloneIsIndependent proves Clone copies all mutable state: driving
// the clone never changes the original, and both agree with a fresh engine
// driven identically.
func TestCloneIsIndependent(t *testing.T) {
	e := fig1aEngine(protocol.Classic)
	driveScript(e, []byte{0, 1, 0x82})
	before := wordsOf(e)

	c := e.Clone()
	if !slices.Equal(wordsOf(c), before) {
		t.Fatal("clone starts from a different state")
	}
	driveScript(c, []byte{2, 0x81, 1, 0})
	if !slices.Equal(wordsOf(e), before) {
		t.Fatal("driving the clone mutated the original")
	}

	ref := fig1aEngine(protocol.Classic)
	driveScript(ref, []byte{0, 1, 0x82})
	driveScript(ref, []byte{2, 0x81, 1, 0})
	if !slices.Equal(wordsOf(c), wordsOf(ref)) {
		t.Fatal("clone diverged from a fresh engine driven identically")
	}
}
