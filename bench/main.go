// Command bench is the repository's one benchmark: the whole trip of an
// E-BGP event from injection to quiescence on both operational substrates
// (the msgsim discrete-event simulator and the TCP speakers, under each
// wire codec, with and without faults) and the analysis side (reachable
// state exploration, the census campaign, the SAT-backed prover). It
// drives the shipped packages only through their exported functions,
// checks every run's output, and prints every metric by name and unit.
//
// The driver form runs one workload once and ends with one JSON line:
//
//	go run ./bench --workload sim-churn --seed 1 --seconds 8 --trace 0
//
// Without -workload it runs every workload -runs times and writes the
// medians to <out>/result.json; -compare A.json B.json judges two such
// files against the bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric; the names and units here are the ones
// BENCHMARK.json lists (the harness test holds the two together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"converge_p50_ms", "ms"},
	{"converge_tail_ms", "ms"},
	{"heap_live_mb", "MB"},
	{"cpu_s_per_event", "s"},
}

// workload is one benchmark input family. run measures the end-to-end
// metrics with tracing off; trace is the separate traced pass that
// attributes cost to layers.
type workload struct {
	name  string
	run   func(*runCtx) error
	trace func(*runCtx) error
}

var workloads = []workload{
	{"sim-cold", runSimCold, traceSimCold},
	{"sim-churn", runSimChurn, traceSimChurn},
	{"sim-churn-faults", runSimChurnFaults, traceSimChurnFaults},
	{"tcp-private", runTCPPrivate, traceTCPPrivate},
	{"tcp-bgp4", runTCPBGP4, traceTCPBGP4},
	{"analysis-explore", runExplore, traceExplore},
	{"analysis-census", runCensus, traceCensus},
	{"analysis-prove", runProve, traceProve},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx carries one run's arguments in and its measurements out.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	sz       sizes
	outDir   string

	// End-to-end measurements; endToEndMetrics turns them into numbers.
	setups []float64 // one entry per complete set-up, seconds
	steps  []float64 // closed-loop step latencies, seconds
	rates  []float64 // events per second, one entry per step or block of steps
	events int       // units of work completed in the timed window
	timed  float64   // timed window, seconds
	cpu    float64   // process CPU over the timed window, seconds
	heapMB float64

	layers map[string]*float64 // per-layer metrics of a traced pass

	attempted, failed int
	hashes            map[string]string // named state hashes and exact counts
	notes             []string
}

// check records one verified operation; a false ok is a failed operation
// and makes the whole run incorrect.
func (c *runCtx) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		msg := fmt.Sprintf(format, args...)
		c.notes = append(c.notes, "FAILED: "+msg)
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", c.workload, msg)
	}
	return ok
}

func (c *runCtx) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

func (c *runCtx) hash(name string, h uint64) { c.hashes[name] = fmt.Sprintf("%016x", h) }

// layer records one per-layer metric of the traced pass.
func (c *runCtx) layer(name string, v float64) { c.layers[name] = &v }

// metricValue is one reported number; Value is null only for a *_speedup
// metric on a host with GOMAXPROCS = 1, where no speed-up can be measured.
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// result is the driver contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndMetrics turns the raw measurements into the six end-to-end
// metrics. Every workload reports all six; README.md says what a step and
// an event are on each. Throughput is the median of the per-step rates, not
// events over window: on a shared host a stall of a second would otherwise
// move the whole run's number.
func (c *runCtx) endToEndMetrics() (map[string]metricValue, error) {
	if len(c.setups) == 0 || len(c.steps) == 0 || len(c.rates) == 0 || c.events == 0 {
		return nil, fmt.Errorf("%s measured nothing (set-ups %d, steps %d, events %d)",
			c.workload, len(c.setups), len(c.steps), c.events)
	}
	vals := map[string]float64{
		"setup_s":          median(c.setups),
		"events_per_s":     median(c.rates),
		"converge_p50_ms":  1e3 * percentile(c.steps, 0.50),
		"converge_tail_ms": 1e3 * percentile(c.steps, tailPercentile(len(c.steps))),
		"heap_live_mb":     c.heapMB,
		"cpu_s_per_event":  c.cpu / float64(c.events),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		v := vals[d.name]
		out[d.name] = metricValue{Value: &v, Unit: d.unit}
	}
	return out, nil
}

func (c *runCtx) layerMetrics() map[string]metricValue {
	out := make(map[string]metricValue, len(perLayer))
	zero := 0.0
	for _, d := range perLayer {
		v, ok := c.layers[d.name]
		if !ok {
			v = &zero // this workload does not run that layer's measurement
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	runs    int
	quick   bool
	sz      sizes
	outDir  string
}

// defs lists the metrics the invocation reports.
func (o options) defs() []metricDef {
	if o.traced {
		return perLayer
	}
	return endToEnd
}

// runOnce executes one workload once and returns the contract result.
func runOnce(w workload, o options) (*runCtx, result, error) {
	c := &runCtx{workload: w.name, seed: o.seed, seconds: o.seconds, sz: o.sz, outDir: o.outDir,
		layers: map[string]*float64{}, hashes: map[string]string{}}
	var metrics map[string]metricValue
	var err error
	if o.traced {
		if err = w.trace(c); err == nil {
			metrics = c.layerMetrics()
		}
	} else {
		if err = w.run(c); err == nil {
			metrics, err = c.endToEndMetrics()
		}
	}
	if err != nil {
		return c, result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if c.attempted == 0 {
		return c, result{}, fmt.Errorf("%s: no operation was checked", w.name)
	}
	return c, result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}, nil
}

// env is the environment stamp printed with every run.
type env struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	LoadAvg1    float64 `json:"load_avg_1m"`
	NoFileLimit uint64  `json:"rlimit_nofile"`
	Network     string  `json:"network"`
}

func stampEnv() env {
	e := env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: "unknown", Network: "loopback only; no real link is crossed"}
	// Ask git only in a checkout that is one: elsewhere it would walk up
	// into directories that are none of the benchmark's business.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &e.LoadAvg1)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil {
		e.NoFileLimit = lim.Cur
	}
	return e
}

// tcpDescriptors bounds what one TCP workload holds open at the stated
// size: 172 listeners during Start plus two descriptors for each of the
// ~340 sessions, with room for the runtime's own.
const tcpDescriptors = 1100

func checkDescriptors(e env, selected []workload) error {
	for _, w := range selected {
		if strings.HasPrefix(w.name, "tcp-") && e.NoFileLimit != 0 && e.NoFileLimit < tcpDescriptors {
			return fmt.Errorf("RLIMIT_NOFILE is %d, but workload %s opens about 900 descriptors; raise it to at least %d (ulimit -n)",
				e.NoFileLimit, w.name, tcpDescriptors)
		}
	}
	return nil
}

func printRun(c *runCtx, r result, defs []metricDef) {
	for _, d := range defs {
		m := r.Metrics[d.name]
		if m.Value == nil {
			fmt.Printf("  %-34s %14s %s\n", d.name, "null", d.unit)
			continue
		}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, *m.Value, d.unit)
	}
	for _, k := range sortedKeys(c.hashes) {
		fmt.Printf("  %-34s %s\n", k, c.hashes[k])
	}
	for _, n := range c.notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  attempted %d, failed %d (failed_share %.6f)\n", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload once and end with the driver's JSON line (default: every workload, -runs times)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", defaultSeconds, "seconds one run measures for")
		trace   = flag.String("trace", "0", "1: run the traced per-layer pass in place of the end-to-end run")
		runs    = flag.Int("runs", 3, "runs per workload when no -workload is given")
		quick   = flag.Bool("quick", false, "toy input sizes (topogen.Small, tens of events): a smoke test, not a measurement")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
	)
	flag.Parse()
	err := errors.New("-trace takes 0 or 1, and -seconds and -runs must be at least 1")
	if (*trace == "0" || *trace == "1") && *seconds >= 1 && *runs >= 1 {
		o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == "1",
			runs: *runs, quick: *quick, sz: statedSizes(), outDir: *outDir}
		if o.quick {
			o.sz = quickSizes()
		}
		err = realMain(*name, o, *compare, flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results are printed when some check
// failed, so that the command exits non-zero.
var errIncorrect = errors.New("some operation failed its check; see the FAILED notes above")

func realMain(name string, o options, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("usage: bench -compare A.json B.json")
		}
		return compareFiles("BENCHMARK.json", args[0], args[1], os.Stdout)
	}
	e := stampEnv()
	stamp, _ := json.Marshal(e)
	fmt.Printf("env %s\n", stamp)

	selected := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	if !o.quick {
		if err := checkDescriptors(e, selected); err != nil {
			return err
		}
	}
	if name != "" {
		c, r, err := runOnce(selected[0], o)
		if err != nil {
			return err
		}
		fmt.Printf("%s seed %d\n", name, o.seed)
		printRun(c, r, o.defs())
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !r.Correct {
			return errIncorrect
		}
		return nil
	}
	return runAll(selected, o, e)
}
