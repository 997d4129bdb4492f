package churn

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/speaker"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// plan builds a drop+delay fault plan with the given horizon (0 = never
// ceases).
func plan(t testing.TB, drop float64, horizon int64) *faults.Plan {
	t.Helper()
	p := &faults.Plan{Seed: 9, Drop: drop, Delay: 0.2, MaxExtraDelay: 5, Horizon: horizon}
	if err := p.Validate(0); err != nil {
		t.Fatal(err)
	}
	return p
}

// smallSys generates the topogen Small family's seed-1 system: 7 routers,
// two reflection levels, 4 exit paths.
func smallSys(t testing.TB) *topology.System { return genSys(t, topogen.Small()) }

// genSys generates and builds the seed-1 system of a topogen family.
func genSys(t testing.TB, family topogen.Spec) *topology.System {
	t.Helper()
	spec, err := topogen.Generate(family, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := topology.BuildSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func soakConfig() Config {
	return Config{
		Spec:      Spec{Seed: 1, Prefixes: 2, Rate: 20, Period: 200, Burst: 80, FlapProb: 0.3},
		Rounds:    5,
		Policy:    protocol.Modified,
		MRAI:      10,
		DelaySeed: 5,
		MaxDelay:  6,
		Timeout:   20 * time.Second,
		Settle:    80 * time.Millisecond,
	}
}

// TestSoakSimDeterministic: two soaks with the identical config produce
// byte-identical aggregates and no violations; every round is checked and
// sampled.
func TestSoakSimDeterministic(t *testing.T) {
	sys := smallSys(t)
	cfg := soakConfig()
	a, err := SoakSim(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("soak violations: %v", a.Violations)
	}
	if a.Agg.Checked != cfg.Rounds {
		t.Fatalf("checked %d of %d rounds", a.Agg.Checked, cfg.Rounds)
	}
	if a.Measured.Convergence.Count != cfg.Rounds {
		t.Fatalf("latency samples %d, want %d", a.Measured.Convergence.Count, cfg.Rounds)
	}
	if a.Agg.Events == 0 || a.Agg.Routers != sys.N() {
		t.Fatalf("implausible aggregate %+v", a.Agg)
	}
	b, err := SoakSim(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Agg, b.Agg) {
		t.Fatalf("same config, different aggregates:\n%+v\n%+v", a.Agg, b.Agg)
	}
}

// TestSoakSimClassicGradesClean: under Classic every settled round must be
// a stable solution of the model, though not a unique one. The Small
// family's seed-1 system settles in one every round.
func TestSoakSimClassicGradesClean(t *testing.T) {
	cfg := soakConfig()
	cfg.Policy = protocol.Classic
	rep, err := SoakSim(smallSys(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Agg.Checked != cfg.Rounds {
		t.Fatalf("classic soak: %d of %d rounds checked, violations %v", rep.Agg.Checked, cfg.Rounds, rep.Violations)
	}
}

// TestSoakSimStateHashPinned pins the rolling state hash of the mid-size
// reference soak (172 routers: the topogen Default family at 5 clients per
// PoP, seed 1, the default churn spec, 8 rounds, Modified, MRAI 10). The
// hash folds every router's RIB after every round, so any change to
// selection, the announcement rules, the refresh merge or the simulator's
// ordering moves it; a refactor that claims to preserve behaviour must
// leave it alone.
func TestSoakSimStateHashPinned(t *testing.T) {
	spec := topogen.Default()
	spec.ClientsPerPoP = 5
	rep, err := SoakSim(genSys(t, spec), Config{Spec: DefaultSpec(), Rounds: 8, Policy: protocol.Modified, MRAI: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("soak violations: %+v", rep.Violations)
	}
	if want := "d95c0c36e5654bc9"; rep.Agg.StateHash != want {
		t.Fatalf("state hash %s, pinned %s", rep.Agg.StateHash, want)
	}
}

// TestSoakSimWithFaults: a horizoned drop+delay plan suppresses the
// windowed checks until the horizon and the soak still closes clean.
func TestSoakSimWithFaults(t *testing.T) {
	sys := smallSys(t)
	cfg := soakConfig()
	cfg.Plan = plan(t, 0.15, 600) // rounds 0-2 end before t=600; rounds 3,4 are checkable
	rep, err := SoakSim(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("faulted soak violations: %v", rep.Violations)
	}
	if rep.Agg.Checked != 2 {
		t.Fatalf("checked %d rounds, want 2 (horizon 600 / period 200)", rep.Agg.Checked)
	}
	if rep.Agg.Rounds != cfg.Rounds {
		t.Fatalf("completed %d rounds, want %d", rep.Agg.Rounds, cfg.Rounds)
	}
}

// TestSoakCrossSubstrate is the harness's core determinism claim: the
// discrete-event simulator and the loopback-TCP speakers, driven by the
// same seed, settle every checked round on the same routing and report the
// identical aggregate. The telemetry hooks must fire on both.
func TestSoakCrossSubstrate(t *testing.T) {
	sys := smallSys(t)
	cfg := soakConfig()
	cfg.Rounds = 4

	var events, samples atomic.Int64
	var bound func() router.Snapshot
	cfg.EventsBatch = func(evs []router.Event) { events.Add(int64(len(evs))) }
	cfg.Latency = func(int64) { samples.Add(1) }
	cfg.BindCounters = func(get func() router.Snapshot) { bound = get }

	sim, err := SoakSim(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.OK() {
		t.Fatalf("sim soak violations: %v", sim.Violations)
	}
	if events.Load() == 0 {
		t.Fatal("EventsBatch hook saw no router events")
	}
	if got := samples.Load(); got != int64(cfg.Rounds) {
		t.Fatalf("Latency hook fired %d times, want %d", got, cfg.Rounds)
	}
	if bound == nil {
		t.Fatal("BindCounters hook not called")
	} else if c := bound(); c.Sent == 0 {
		t.Fatalf("bound counters getter reports no traffic: %+v", c)
	}

	events.Store(0)
	samples.Store(0)
	tcp, err := SoakTCP(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tcp.OK() {
		t.Fatalf("tcp soak violations: %v", tcp.Violations)
	}
	if events.Load() == 0 {
		t.Fatal("EventsBatch hook saw no router events on the TCP substrate")
	}
	if !reflect.DeepEqual(sim.Agg, tcp.Agg) {
		t.Fatalf("substrates disagree:\nsim %+v\ntcp %+v", sim.Agg, tcp.Agg)
	}
	if tcp.Substrate != "tcp" || sim.Substrate != "sim" {
		t.Fatalf("substrate labels %q / %q", sim.Substrate, tcp.Substrate)
	}
}

// TestSoakTCPCrossCodec: the TCP soak's deterministic aggregate (event
// totals, per-round checks and the FNV state hash) must be byte-identical
// whichever wire format carries the UPDATEs. Together with the sim/TCP
// equality above this pins the bgp4 codec as pure transport.
func TestSoakTCPCrossCodec(t *testing.T) {
	sys := smallSys(t)
	cfg := soakConfig()
	cfg.Rounds = 3

	private, err := SoakTCP(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !private.OK() {
		t.Fatalf("private-codec soak violations: %v", private.Violations)
	}

	cfg.Codec = speaker.BGP4
	bgp4, err := SoakTCP(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bgp4.OK() {
		t.Fatalf("bgp4-codec soak violations: %v", bgp4.Violations)
	}
	if !reflect.DeepEqual(private.Agg, bgp4.Agg) {
		t.Fatalf("codecs disagree:\nprivate %+v\nbgp4    %+v", private.Agg, bgp4.Agg)
	}
}
