package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/churn"
	"repro/internal/topogen"
	"repro/internal/workload"
)

// testParams is a small family that oscillates often enough (~7% of
// seeds; cf. E22's MED-prevalence numbers) for the census statistics to
// have signal while staying fast to explore exhaustively.
var testParams = workload.Params{
	Clusters: 2, MinClients: 1, MaxClients: 2, ASes: 2,
	Exits: 4, MaxMED: 2, MaxCost: 8, ExtraLinks: 2,
}

func testJob() CensusJob {
	return CensusJob{Params: testParams, MaxStates: 1500}
}

func mustJSON(t *testing.T, agg *Aggregate) []byte {
	t.Helper()
	b, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardIndependence is the core determinism contract: the aggregate
// JSON must be byte-identical no matter how many workers ran the census.
func TestShardIndependence(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 3, 8} {
		agg, err := Run(context.Background(), testJob(), Config{Shards: shards, Start: 1, Seeds: 24})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := mustJSON(t, agg)
		if want == nil {
			want = got
			if agg.Completed != 24 {
				t.Fatalf("completed = %d, want 24", agg.Completed)
			}
			if agg.ClassicOsc == 0 {
				t.Fatalf("census family produced no oscillations; statistics are vacuous:\n%s", want)
			}
			continue
		}
		if string(got) != string(want) {
			t.Errorf("shards=%d changed the aggregate:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// cancelAfter wraps a job to cancel the campaign after n completed seeds,
// simulating a kill mid-run.
type cancelAfter struct {
	Job
	n      int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	res := c.Job.Run(ctx, seed, m)
	if c.count.Add(1) == c.n {
		c.cancel()
	}
	return res
}

// TestKillAndResumeMatchesUninterrupted kills a checkpointed campaign
// partway, resumes it, and requires the final aggregate to be
// byte-identical to an uninterrupted run of the same range.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	const seeds = 20
	uninterrupted, err := Run(context.Background(), testJob(), Config{Shards: 2, Start: 100, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, uninterrupted)

	ckpt := filepath.Join(t.TempDir(), "census.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAfter{Job: testJob(), n: 7, cancel: cancel}
	partial, err := Run(ctx, killer, Config{
		Shards: 2, Start: 100, Seeds: seeds, Checkpoint: ckpt, FlushEvery: 1,
	})
	if err == nil {
		t.Fatal("killed campaign reported no error")
	}
	if partial == nil || partial.Completed >= seeds {
		t.Fatalf("kill did not interrupt the campaign (completed=%v)", partial)
	}

	resumed, err := Run(context.Background(), testJob(), Config{
		Shards: 2, Start: 100, Seeds: seeds, Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, resumed); string(got) != string(want) {
		t.Errorf("resumed aggregate differs from uninterrupted:\n%s\nwant:\n%s", got, want)
	}
}

// TestResumeFreshCheckpoint resumes with no checkpoint file on disk: the
// campaign must simply run everything.
func TestResumeFreshCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "none.jsonl")
	agg, err := Run(context.Background(), testJob(), Config{
		Shards: 2, Start: 1, Seeds: 4, Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 4 {
		t.Fatalf("completed = %d, want 4", agg.Completed)
	}
}

// TestCheckpointToleratesTornTail simulates a kill mid-write: a truncated
// final line must be skipped (and recomputed), not fail the resume.
func TestCheckpointToleratesTornTail(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "census.jsonl")
	if _, err := Run(context.Background(), testJob(), Config{
		Shards: 1, Start: 1, Seeds: 6, Checkpoint: ckpt, FlushEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCheckpoint(ckpt, 1, 6)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(loaded) != 5 {
		t.Fatalf("loaded %d records from torn checkpoint, want 5", len(loaded))
	}
	agg, err := Run(context.Background(), testJob(), Config{
		Shards: 2, Start: 1, Seeds: 6, Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 6 {
		t.Fatalf("completed = %d, want 6", agg.Completed)
	}
}

// TestCheckpointRejectsMidfileCorruption only the *final* line may be
// torn; corruption earlier in the file must fail loudly.
func TestCheckpointRejectsMidfileCorruption(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(ckpt, []byte("{\"seed\":1\n{\"seed\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(ckpt, 1, 8); err == nil {
		t.Fatal("mid-file corruption not rejected")
	}
}

// TestConfigValidation covers the error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), testJob(), Config{Seeds: 0}); err == nil {
		t.Error("zero seed count accepted")
	}
	if _, err := Run(context.Background(), testJob(), Config{Seeds: 1, Resume: true}); err == nil {
		t.Error("resume without checkpoint accepted")
	}
}

// TestProgressAndMeters requires the reporter to fire and the per-worker
// counters to account for real work.
func TestProgressAndMeters(t *testing.T) {
	var reports []ProgressReport
	agg, err := Run(context.Background(), testJob(), Config{
		Shards: 2, Start: 1, Seeds: 8,
		Progress: func(p ProgressReport) { reports = append(reports, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("progress reporter never fired")
	}
	last := reports[len(reports)-1]
	if last.Done != 8 || last.Total != 8 {
		t.Errorf("final progress = %d/%d, want 8/8", last.Done, last.Total)
	}
	var seeds, states int64
	for _, w := range last.Workers {
		seeds += w.Seeds
		states += w.States
	}
	if seeds != 8 {
		t.Errorf("worker meters account for %d seeds, want 8", seeds)
	}
	if states == 0 && agg.TotalStates > 0 {
		t.Error("states explored but no worker meter recorded them")
	}
	if s := last.String(); s == "" {
		t.Error("empty progress line")
	}
}

// TestCensusExhaustiveVsSampling: with a state budget the verdicts carry
// exhaustive proofs where the space fit; stripping the budget must not
// invent convergence on seeds the exhaustive pass proved oscillatory.
func TestCensusExhaustiveVsSampling(t *testing.T) {
	exh, err := Run(context.Background(), testJob(), Config{Shards: 2, Start: 1, Seeds: 16})
	if err != nil {
		t.Fatal(err)
	}
	if exh.Exhaustive == 0 {
		t.Fatalf("no seed fit the exhaustive budget: %s", exh)
	}
	job := testJob()
	job.MaxStates = 0
	smp, err := Run(context.Background(), job, Config{Shards: 2, Start: 1, Seeds: 16})
	if err != nil {
		t.Fatal(err)
	}
	if smp.TotalStates != 0 || smp.Exhaustive != 0 {
		t.Errorf("sampling-only census claims exploration: %s", smp)
	}
	if exh.ModifiedConv != smp.ModifiedConv {
		t.Errorf("modified-convergence count differs: exhaustive %d vs sampling %d", exh.ModifiedConv, smp.ModifiedConv)
	}
}

// TestFuzzJobDeterminism runs the message-level fuzz twice and requires
// identical aggregates, including message counts.
func TestFuzzJobDeterminism(t *testing.T) {
	job := FuzzJob{Params: testParams, Schedules: 3}
	a, err := Run(context.Background(), job, Config{Shards: 3, Start: 1, Seeds: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), job, Config{Shards: 1, Start: 1, Seeds: 12})
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if string(ja) != string(jb) {
		t.Errorf("fuzz aggregate not deterministic:\n%s\nvs\n%s", ja, jb)
	}
	if a.Schedules != 12*3 || a.Messages == 0 {
		t.Errorf("fuzz statistics implausible: %s", a)
	}
}

// TestChaosJobShardIndependence: the chaos aggregate must be
// byte-identical no matter the shard count — fault fates are hashed from
// the plan seed, never drawn from shared RNG state, so the whole record is
// a function of the seed range.
func TestChaosJobShardIndependence(t *testing.T) {
	job := ChaosJob{Params: testParams, Plans: 2}
	var want *Aggregate
	var wantJSON []byte
	for _, shards := range []int{1, 4} {
		agg, err := Run(context.Background(), job, Config{Shards: shards, Start: 1, Seeds: 10})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := mustJSON(t, agg)
		if wantJSON == nil {
			want, wantJSON = agg, got
			continue
		}
		if string(got) != string(wantJSON) {
			t.Errorf("shards=%d changed the chaos aggregate:\n%s\nwant:\n%s", shards, got, wantJSON)
		}
	}
	if want.ChaosPlans == 0 || want.Messages == 0 {
		t.Fatalf("chaos campaign did no work: %s", want)
	}
	// The invariant itself: every plan on every convergent seed reconverged
	// loop-free with a closed ledger. Generator rejects surface as Err
	// records, never as invariant violations.
	if want.ChaosViolations != 0 || want.LedgerBroken != 0 {
		t.Fatalf("chaos invariants violated: %s (examples %v)", want, want.ChaosExamples)
	}
	if want.Reconverged != want.ChaosPlans || want.LoopFree != want.ChaosPlans {
		t.Fatalf("plans=%d reconverged=%d loopfree=%d", want.ChaosPlans, want.Reconverged, want.LoopFree)
	}
}

// TestChaosJobAggregatePinned pins the chaos census the CI smoke step runs
// (`ibgpcensus -job chaos -seeds 24 -plans 2`): every count of the
// aggregate is a pure function of the seed range, so a refactor of the
// oracle, the fault shim or the plan loop must leave these literals alone.
func TestChaosJobAggregatePinned(t *testing.T) {
	agg, err := Run(context.Background(), ChaosJob{Params: workload.Default(3), Plans: 2},
		Config{Shards: 1, Start: 1, Seeds: 24})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Quiesced != 48 || agg.Messages != 2112 || agg.Flaps != 834 ||
		agg.ChaosPlans != 48 || agg.Reconverged != 48 || agg.LoopFree != 48 ||
		agg.ChaosViolations != 0 || agg.LedgerBroken != 0 {
		t.Fatalf("chaos aggregate moved:\n%s", mustJSON(t, agg))
	}
}

// scaleTestJob is the scale census of the CI determinism step: the Small
// provider family at 3 PoPs, 4 exits, 16 prefixes, default churn, 3 rounds,
// one fault plan per seed.
func scaleTestJob() ScaleJob {
	spec := topogen.Small()
	spec.PoPs, spec.Exits, spec.Prefixes = 3, 4, 16
	return ScaleJob{Spec: spec, Churn: churn.DefaultSpec(), Rounds: 3, Plans: 1}
}

// TestScaleJobAggregatePinned pins that census's counts over seeds 1..4
// (warm-up + 3 churn rounds + 1 faulted run per seed = 20 quiescences).
func TestScaleJobAggregatePinned(t *testing.T) {
	agg, err := Run(context.Background(), scaleTestJob(), Config{Shards: 1, Start: 1, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Quiesced != 20 || agg.Messages != 2740 || agg.Flaps != 2267 ||
		agg.ChaosPlans != 4 || agg.Reconverged != 4 || agg.LoopFree != 4 ||
		agg.ChaosViolations != 0 || agg.LedgerBroken != 0 {
		t.Fatalf("scale aggregate moved:\n%s", mustJSON(t, agg))
	}
}

// TestScaleJobShardIndependence: like every campaign job, the scale
// record is a function of the seed alone — the shard count must not move
// a byte of the aggregate, params header included.
func TestScaleJobShardIndependence(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 4, 2} {
		agg, err := Run(context.Background(), scaleTestJob(), Config{Shards: shards, Start: 1, Seeds: 4})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := mustJSON(t, agg)
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("shards=%d changed the scale aggregate:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestScaleJobDescribeIsWhatRuns: the params header must not print churn
// fields Run never uses — Seed and Prefixes are overridden per seed, so a
// caller's values for them cannot move the header (or the record).
func TestScaleJobDescribeIsWhatRuns(t *testing.T) {
	a, b := scaleTestJob(), scaleTestJob()
	a.Churn, b.Churn = churn.DefaultSpec(), churn.DefaultSpec()
	b.Churn.Seed, b.Churn.Prefixes = 99, 77
	if a.Describe() != b.Describe() {
		t.Fatalf("header shows per-seed-overridden churn fields:\n%s\n%s", a.Describe(), b.Describe())
	}
}

// TestFig13JobSmoke classifies a few crossed-family draws; the known
// counterexample seed must be flagged (cf. the pinned figures.Fig13 seed).
func TestFig13JobSmoke(t *testing.T) {
	job := Fig13Job{Spec: workload.CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}}
	agg, err := Run(context.Background(), job, Config{Shards: 2, Start: 8903, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 4 {
		t.Fatalf("completed = %d, want 4", agg.Completed)
	}
	if agg.Fig13 == 0 {
		t.Errorf("seed range around the pinned counterexample found no fig13-like instance: %s", agg)
	}
}

// TestCensusJobAggregatePinned pins the census aggregate of the bench/E23
// family over seeds 80..89, JSON byte for byte. At budget 1500 every seed is
// decided exhaustively, and seeds 84 and 88 oscillate MED-induced. At
// budget 150 seeds 84, 87 and 88 truncate and are decided by the sampled
// schedules instead, with the same verdicts.
func TestCensusJobAggregatePinned(t *testing.T) {
	const hist = `
  "state_hist": [
    {
      "lo": 9,
      "hi": 16,
      "count": 4
    },
    {
      "lo": 17,
      "hi": 32,
      "count": 3
    },`
	for _, tc := range []struct {
		maxStates int
		want      string
	}{
		{1500, `{
  "job": "census",
  "params": "{Clusters:2 MinClients:1 MaxClients:2 ASes:2 Exits:4 MaxMED:2 MaxCost:8 ExtraLinks:2} maxStates=1500",
  "start_seed": 80,
  "seeds": 10,
  "completed": 10,
  "classic_osc": 2,
  "walton_osc": 0,
  "modified_conv": 10,
  "med_induced": 2,
  "divergent": 2,
  "fig13": 0,
  "divergent_examples": [
    84,
    88
  ],
  "exhaustive": 10,
  "truncated": 0,
  "total_states": 1389,
  "max_states": 899,
  "fixed_points": 8,` + hist + `
    {
      "lo": 129,
      "hi": 256,
      "count": 2
    },
    {
      "lo": 513,
      "hi": 1024,
      "count": 1
    }
  ]
}`},
		{150, `{
  "job": "census",
  "params": "{Clusters:2 MinClients:1 MaxClients:2 ASes:2 Exits:4 MaxMED:2 MaxCost:8 ExtraLinks:2} maxStates=150",
  "start_seed": 80,
  "seeds": 10,
  "completed": 10,
  "classic_osc": 2,
  "walton_osc": 0,
  "modified_conv": 10,
  "med_induced": 2,
  "divergent": 2,
  "fig13": 0,
  "divergent_examples": [
    84,
    88
  ],
  "exhaustive": 7,
  "truncated": 3,
  "total_states": 579,
  "max_states": 151,
  "fixed_points": 8,` + hist + `
    {
      "lo": 129,
      "hi": 256,
      "count": 3
    }
  ]
}`},
	} {
		agg, err := Run(context.Background(), CensusJob{Params: testParams, MaxStates: tc.maxStates},
			Config{Shards: 1, Start: 80, Seeds: 10})
		if err != nil {
			t.Fatal(err)
		}
		if got := string(mustJSON(t, agg)); got != tc.want {
			t.Errorf("maxStates=%d: census aggregate moved:\n%s\nwant:\n%s", tc.maxStates, got, tc.want)
		}
	}
}

// TestFig13JobAggregatePinned pins the Figure 13 hunt around the seed that
// produced figures.Fig13. Without a budget the verdicts are sampled; with
// a 3,000,000-state budget seed 8905 must be confirmed exhaustively, which
// is how the pinned figure was verified.
func TestFig13JobAggregatePinned(t *testing.T) {
	spec := workload.CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}
	agg, err := Run(context.Background(), Fig13Job{Spec: spec}, Config{Shards: 2, Start: 8903, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	agg.Params = ""
	const want = `{
  "job": "fig13",
  "params": "",
  "start_seed": 8903,
  "seeds": 4,
  "completed": 4,
  "classic_osc": 2,
  "walton_osc": 1,
  "modified_conv": 4,
  "med_induced": 2,
  "divergent": 1,
  "fig13": 1,
  "divergent_examples": [
    8903
  ],
  "fig13_examples": [
    8905
  ],
  "exhaustive": 0,
  "truncated": 0,
  "total_states": 0,
  "max_states": 0,
  "fixed_points": 0
}`
	if got := string(mustJSON(t, agg)); got != want {
		t.Errorf("fig13 aggregate moved:\n%s\nwant:\n%s", got, want)
	}

	// Fields in declaration order: Spec, the state budget, Workers.
	agg, err = Run(context.Background(), Fig13Job{spec, 3000000, 1}, Config{Shards: 1, Start: 8905, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Fig13 != 1 || agg.Exhaustive != 1 {
		t.Fatalf("seed 8905 not exhaustively confirmed as Figure 13-like:\n%s", mustJSON(t, agg))
	}
}

// TestGeneratorRejectsBecomeErrRecords: a job over an invalid family
// reports per-seed errors, not a campaign failure.
func TestGeneratorRejectsBecomeErrRecords(t *testing.T) {
	job := CensusJob{Params: workload.Params{Clusters: 0}}
	agg, err := Run(context.Background(), job, Config{Shards: 2, Start: 1, Seeds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 5 || agg.Completed != 5 {
		t.Errorf("errors = %d completed = %d, want 5/5", agg.Errors, agg.Completed)
	}
}
