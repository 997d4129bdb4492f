package ibgp

// BenchmarkScale pins the prefix-sharded operational core at ISP scale: a
// routers x prefixes grid of generated provider topologies, each brought
// through a full warm-up convergence and a few churn rounds on the msgsim
// substrate, plus one chaos-plan variant through campaign.ScaleJob.
// Sustained msgs/sec per grid point goes to BENCH_scale.json; the
// 1012-router x 256-prefix flagship point must complete its warm-up
// quiescence within the benchmark's time bound, which is what keeps
// "domain of R routers and P prefixes" an operational claim rather than
// an extrapolation.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/campaign"
	"repro/internal/churn"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// scaleResult is one grid point's record.
type scaleResult struct {
	Name           string  `json:"name"`
	Routers        int     `json:"routers"`
	Prefixes       int     `json:"prefixes"`
	WarmupSec      float64 `json:"warmup_sec"`
	WarmupMsgs     int     `json:"warmup_msgs"`
	WarmupPerSec   float64 `json:"warmup_msgs_per_sec"`
	ChurnRounds    int     `json:"churn_rounds"`
	ChurnSec       float64 `json:"churn_sec"`
	ChurnMsgs      int     `json:"churn_msgs"`
	ChurnPerSec    float64 `json:"churn_msgs_per_sec"`
	Quiesced       bool    `json:"quiesced"`
	WithinBoundSec float64 `json:"within_bound_sec"`
}

// benchEnv is the host-parallelism stamp the record carries: throughput
// figures are only comparable across commits when the runner's CPU budget
// is known.
type benchEnv struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// scalePoint drives one grid point: generate, build the overlay domain,
// warm up to quiescence under the time bound, then run churn rounds to
// quiescence. The event budget is a divergence guard only — the bound
// that matters is wall-clock.
func scalePoint(b *testing.B, name string, spec topogen.Spec, prefixes, rounds int, bound time.Duration) scaleResult {
	b.Helper()
	spec.Prefixes = prefixes
	tsp, err := topogen.Generate(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	systems, err := topology.BuildSpecAll(tsp)
	if err != nil {
		b.Fatal(err)
	}
	dom := make(map[uint32]*topology.System, len(systems))
	for i, sys := range systems {
		dom[uint32(i)] = sys
	}
	base := systems[0]

	const maxEvents = 100_000_000
	s := msgsim.NewMulti(dom, protocol.Modified, selection.Options{}, msgsim.ConstantDelay(1))

	start := time.Now()
	s.InjectAll()
	res := s.Run(maxEvents)
	warmSec := time.Since(start).Seconds()
	if !res.Quiesced {
		b.Fatalf("%s: warm-up did not quiesce in %d events", name, maxEvents)
	}
	if warmSec > bound.Seconds() {
		b.Fatalf("%s: warm-up took %.1fs, bound %v", name, warmSec, bound)
	}
	warmMsgs := res.Messages

	cspec := churn.DefaultSpec()
	cspec.Prefixes = len(dom)
	paths := make([]bgp.PathID, len(base.Exits()))
	for i, p := range base.Exits() {
		paths[i] = p.ID
	}
	st, err := churn.NewStream(cspec, paths)
	if err != nil {
		b.Fatal(err)
	}
	start = time.Now()
	for rd := 0; rd < rounds; rd++ {
		at := s.Now() + 1
		for _, ev := range st.Next() {
			if ev.Withdraw {
				s.WithdrawPrefixAt(at+ev.At, ev.Prefix, ev.Path)
			} else {
				s.InjectPrefixAt(at+ev.At, ev.Prefix, ev.Path)
			}
		}
		res = s.Run(res.Events + maxEvents)
		if !res.Quiesced {
			b.Fatalf("%s: churn round %d did not quiesce", name, rd)
		}
	}
	churnSec := time.Since(start).Seconds()
	churnMsgs := res.Messages - warmMsgs

	return scaleResult{
		Name:           name,
		Routers:        base.N(),
		Prefixes:       len(dom),
		WarmupSec:      warmSec,
		WarmupMsgs:     warmMsgs,
		WarmupPerSec:   float64(warmMsgs) / warmSec,
		ChurnRounds:    rounds,
		ChurnSec:       churnSec,
		ChurnMsgs:      churnMsgs,
		ChurnPerSec:    float64(churnMsgs) / churnSec,
		Quiesced:       true,
		WithinBoundSec: bound.Seconds(),
	}
}

func BenchmarkScale(b *testing.B) {
	mid := topogen.Default()
	mid.ClientsPerPoP = 5
	type point struct {
		name     string
		spec     topogen.Spec
		prefixes int
		rounds   int
		bound    time.Duration
	}
	points := []point{
		{"small-64p", topogen.Small(), 64, 2, 60 * time.Second},
		{"mid-64p", mid, 64, 2, 120 * time.Second},
		{"default-64p", topogen.Default(), 64, 1, 180 * time.Second},
		{"default-256p", topogen.Default(), 256, 1, 300 * time.Second},
	}
	if testing.Short() {
		points = []point{{"small-16p", topogen.Small(), 16, 1, 60 * time.Second}}
	}

	var grid []scaleResult
	var chaosRes campaign.SeedResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid = grid[:0]
		for _, p := range points {
			grid = append(grid, scalePoint(b, p.name, p.spec, p.prefixes, p.rounds, p.bound))
		}

		// Chaos-plan variant: the campaign job's fault-injection pass over
		// a small multi-prefix domain; every plan must re-converge to the
		// Lemma 7.4 reference, stay loop-free and close the ledger.
		job := campaign.ScaleJob{Spec: topogen.Small(), Plans: 2}
		job.Spec.Prefixes = 16
		var m campaign.Meter
		chaosRes = job.Run(context.Background(), 1, &m)
		if chaosRes.Err != "" {
			b.Fatalf("scale chaos variant: %s", chaosRes.Err)
		}
		if chaosRes.Reconverged != chaosRes.ChaosPlans || chaosRes.LoopFree != chaosRes.ChaosPlans || chaosRes.LedgerBroken != 0 {
			b.Fatalf("scale chaos variant violated invariants: %+v", chaosRes)
		}
	}
	b.StopTimer()

	flag := grid[len(grid)-1]
	b.ReportMetric(flag.WarmupPerSec, "flagship-msgs/sec")
	b.ReportMetric(flag.WarmupSec, "flagship-warmup-sec")

	record := struct {
		Job         string        `json:"job"`
		Grid        []scaleResult `json:"grid"`
		ChaosPlans  int           `json:"chaos_plans"`
		Reconverged int           `json:"chaos_reconverged"`
		LoopFree    int           `json:"chaos_loop_free"`
		Env         benchEnv      `json:"env"`
	}{
		Job:         "scale/topogen-grid-seed1",
		Grid:        grid,
		ChaosPlans:  chaosRes.ChaosPlans,
		Reconverged: chaosRes.Reconverged,
		LoopFree:    chaosRes.LoopFree,
		Env:         benchEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()},
	}
	out, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
