package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileSelection(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, shuffled
	for _, tc := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.75, 8}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	// The tail percentile must leave at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{{2, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {5000, 0.9}} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if beyond := tc.n * (100 - int(100*got+0.5)) / 100; got > 0.5 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", tc.n, got)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{kind: spanEvent, start: 0, end: 100, parent: -1},    // 0: root
		{kind: spanRefresh, start: 10, end: 50, parent: 0},   // 1: nested in root
		{kind: spanEncode, start: 20, end: 30, parent: 1},    // 2: nested in 1
		{kind: spanEncode, start: 25, end: 40, parent: 1},    // 3: sibling overlapping 2
		{kind: spanQueueWait, start: 45, end: 80, parent: 1}, // 4: sticks out of 1
		{kind: spanApply, start: 60, end: 70, parent: 0},     // 5: second child of root, abutting nothing
		{kind: spanDecode, start: 50, end: 60, parent: 0},    // 6: sibling abutting 1 and 5, recorded out of order
	}
	want := []int64{
		100 - (40 + 10 + 10), // root minus [10,50] [50,60] [60,70]
		40 - (20 + 5),        // [20,40] from the overlapping encodes, [45,50] of the wait
		10, 15, 35, 10, 10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spanNames[spans[i].kind], got[i], want[i])
		}
	}
	by := totalsByKind(spans)
	if by[spanEncode].count != 2 || by[spanEncode].total != 25 || by[spanEncode].own != 25 {
		t.Errorf("encode totals = %+v", by[spanEncode])
	}
}

func sum(med, lo, hi float64) summary {
	return summary{Unit: "x", Median: &med, Min: &lo, Max: &hi}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a, b  summary
		lower bool
		want  verdict
	}{
		{"lower is better, clearly lower", sum(100, 99, 101), sum(80, 79, 81), true, better},
		{"lower is better, clearly higher", sum(100, 99, 101), sum(120, 119, 121), true, worse},
		{"higher is better, clearly higher", sum(100, 99, 101), sum(120, 119, 121), false, better},
		{"higher is better, clearly lower", sum(100, 99, 101), sum(80, 79, 81), false, worse},
		{"within the bound", sum(100, 99, 101), sum(104, 103, 105), true, unchanged},
		{"spread wider than the bound", sum(100, 90, 115), sum(104, 103, 105), true, unresolved},
		{"wide spread but every run better", sum(100, 90, 115), sum(70, 60, 80), true, better},
		{"wide spread and worse beyond the bound", sum(100, 90, 115), sum(125, 100, 150), true, worse},
	} {
		if got := judge(tc.a, tc.b, tc.lower, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64, failed int, hash string) string {
		f := resultFile{Seed: 1, Seconds: 8, Runs: 3, Workloads: map[string]workloadResult{
			"sim-churn": {
				Metrics:   map[string]summary{"converge_p50_ms": sum(latency, latency*0.99, latency*1.01)},
				Attempted: 100, Failed: failed,
				Exact: map[string]string{"state_hash_at_300": hash, "updates_sent": name},
			},
		}}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", 10, 0, "aa")
	for _, tc := range []struct {
		name, other string
		wantErr     string
		wantRow     string
	}{
		{"same", write("same", 10.2, 0, "aa"), "", "unchanged"},
		{"faster", write("faster", 7, 0, "aa"), "", "better"},
		{"slower", write("slower", 13, 0, "aa"), "converge_p50_ms regressed", "WORSE"},
		{"failing", write("failing", 10, 1, "aa"), "failed_share rose", "1 of 100"},
		{"diverged", write("diverged", 10, 0, "bb"), "state_hash_at_300 changed", "DIFFERS"},
	} {
		var out bytes.Buffer
		err := compareFiles(filepath.Join("..", "BENCHMARK.json"), base, tc.other, &out)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(out.String(), tc.wantRow) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.wantRow, out.String())
		}
	}
}

func quickCtx(name string, outDir string) *runCtx {
	return &runCtx{workload: name, seed: 3, seconds: 20 * time.Millisecond, sz: quickSizes(), outDir: outDir,
		layers: map[string]*float64{}, hashes: map[string]string{}}
}

// TestStateHashAcrossSubstrates drives the same event stream through the
// simulator, the traced pipeline under both codecs and the TCP speakers
// under both codecs: Lemma 7.4 says all five reach one state, and the
// fresh-convergence reference must name it too.
func TestStateHashAcrossSubstrates(t *testing.T) {
	c := quickCtx("test", t.TempDir())
	cs, err := setupChurnSim(c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	evs, es, err := churnEvents(cs.d, c.sz.simRate, c.seed, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if quiesced, _ := cs.apply(ev); !quiesced {
			t.Fatal("simulator did not quiesce")
		}
	}
	want := stateHash(cs.d.prefixes, cs.d.routers, cs.s.BestFor)
	ref, err := referenceHash(cs.d, cs.d.prefixes, es.live)
	if err != nil {
		t.Fatal(err)
	}
	if ref != want {
		t.Errorf("fresh convergence on the announced paths reached %016x, the churned simulator %016x", ref, want)
	}
	for _, codec := range []string{"private", "bgp4"} {
		r, err := replay(cs.d, codec, evs, false, true)
		if err != nil {
			t.Fatal(err)
		}
		if r.hash != want || !r.quiescedOK {
			t.Errorf("%s pipeline reached %016x (ledger closed %v), the simulator %016x", codec, r.hash, r.quiescedOK, want)
		}
		if len(r.spans) == 0 {
			t.Errorf("%s pipeline recorded no spans", codec)
		}

		net, err := setupTCP(c, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			apply := net.n.InjectPrefix
			if ev.Withdraw {
				apply = net.n.WithdrawPrefix
			}
			apply(ev.Prefix, ev.Path)
		}
		quiesced := net.n.WaitQuiesce(c.sz.quiesceBudget, c.sz.settle)
		got := stateHash(net.d.prefixes, net.d.routers, net.n.BestFor)
		net.n.Stop()
		if !quiesced || got != want {
			t.Errorf("TCP speakers under %s reached %016x (quiesced %v), the simulator %016x", codec, got, quiesced, want)
		}
	}
	if c.failed != 0 {
		t.Errorf("harness checks failed: %v", c.notes)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickSmoke runs every workload, untraced and traced, at the -quick
// sizes and holds what it emits against BENCHMARK.json: the same workload
// and metric names, every metric with a unit, every end-to-end metric with
// a bound and a value that is never zero.
func TestQuickSmoke(t *testing.T) {
	var spec benchSpec
	if err := loadJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the harness default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	checkDefs := func(kind string, listed []specMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness has %d", len(listed), kind, len(defs))
		}
		seen := map[string]bool{}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %s lacks a unit or a direction", kind, m.Name)
			}
			if bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s metric %s needs a bound in (0, 0.25]", kind, m.Name)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s metric %s must not carry a bound", kind, m.Name)
			}
		}
	}
	checkDefs("end-to-end", spec.EndToEnd, endToEnd, true)
	checkDefs("per-layer", spec.PerLayer, perLayer, false)

	out := t.TempDir()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) || spec.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			began := time.Now()
			c, r, err := runOnce(w, options{seed: 3, seconds: 20 * time.Millisecond, traced: traced, sz: quickSizes(), outDir: out})
			t.Logf("%s traced=%v took %v", w.name, traced, time.Since(began).Round(time.Millisecond))
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
				continue
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed: %v", w.name, traced, r.Correct, r.Failed, r.Attempted, c.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				switch {
				case !ok || m.Unit != d.unit:
					t.Errorf("%s traced=%v: metric %s missing or with unit %q", w.name, traced, d.name, m.Unit)
				case m.Value == nil && !strings.HasSuffix(d.name, "_speedup"):
					t.Errorf("%s traced=%v: metric %s is null", w.name, traced, d.name)
				case !traced && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, *m.Value)
				}
			}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", w.name, keys)
			}
		}
	}
	for _, name := range []string{"sim-cold", "sim-churn", "tcp-private", "tcp-bgp4"} {
		if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
			t.Errorf("traced pass of %s wrote no span file: %v", name, err)
		}
	}
}
