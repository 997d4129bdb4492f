// Command ibgpsim runs one protocol variant over a topology and reports
// the outcome. Three execution substrates are available: the paper's
// abstract activation model, the message-level discrete-event simulator,
// and real TCP speakers on the loopback interface. The two operational
// substrates drive the identical router core and share the typed-event
// trace rendering and operational counters.
//
// Usage:
//
//	ibgpsim -topology sys.json [-policy classic|walton|modified]
//	        [-order paper|rfc] [-med standard|always]
//	        [-schedule roundrobin|allatonce|random] [-seed N]
//	        [-max-steps N] [-trace] [-figure 1a|1b|2|3|12|13|14]
//	        [-substrate model|sim|tcp] [-delay N] [-jitter N] [-mrai N]
//	        [-wait D] [-faults SPEC] [-codec private|bgp4]
//
// Either -topology or -figure selects the system. -substrate=sim runs the
// message-level simulator (virtual ticks; -delay/-jitter shape per-message
// delays), -substrate=tcp runs the loopback speakers (milliseconds; -wait
// bounds the quiescence wait).
//
// -codec selects the TCP speakers' wire format: the compact private codec
// (default) or real BGP-4 messages per RFC 4271/4456/7911. The codec is
// pure transport — both produce identical routing outcomes.
//
// -faults installs a deterministic fault plan on either operational
// substrate: "seed=7,drop=0.05,dup=0.02,delay=0.2,maxdelay=30,
// reset=0-1@100+50,horizon=600" drops/duplicates/delays UPDATEs with the
// given per-message probabilities, resets the 0-1 session at t=100 for 50
// ticks (sim) / ms (tcp), and ceases all faults at t=600.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	ibgp "repro"
	"repro/internal/cli"
	"repro/internal/trace"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "topology JSON file")
		figure    = flag.String("figure", "", "paper figure: 1a, 1b, 2, 3, 12, 13, 14")
		policy    = flag.String("policy", "classic", "classic, walton, modified or adaptive")
		order     = flag.String("order", "paper", "rule order: paper or rfc")
		med       = flag.String("med", "standard", "MED mode: standard or always")
		schedule  = flag.String("schedule", "roundrobin", "roundrobin, allatonce or random")
		seed      = flag.Int64("seed", 1, "seed for -schedule random and -jitter")
		maxSteps  = flag.Int("max-steps", 10000, "activation / event budget")
		showTr    = flag.Bool("trace", false, "print per-event trace")
		substrate = flag.String("substrate", "model", "execution substrate: model, sim or tcp")
		delay     = flag.Int64("delay", 10, "sim: base message delay")
		jitter    = flag.Int64("jitter", 0, "sim: random extra delay bound")
		mrai      = flag.Int64("mrai", 0, "minimum route advertisement interval, sim ticks / tcp ms (0 off)")
		wait      = flag.Duration("wait", 5*time.Second, "tcp: quiescence wait bound")
		faultSpec = flag.String("faults", "", `sim/tcp: fault plan, e.g. "seed=7,drop=0.05,dup=0.02,delay=0.2,maxdelay=30,reset=0-1@100+50,horizon=600"`)
		codecName = flag.String("codec", "private", "tcp: wire format, private or bgp4")
	)
	flag.Parse()
	if *maxSteps < 1 {
		fmt.Fprintf(os.Stderr, "ibgpsim: -max-steps must be at least 1, got %d\n", *maxSteps)
		os.Exit(2)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{{"delay", *delay}, {"jitter", *jitter}, {"mrai", *mrai}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "ibgpsim: -%s must not be negative, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}

	sys, err := cli.LoadSystem(*topoPath, *figure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibgpsim:", err)
		os.Exit(1)
	}
	pol, err := cli.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibgpsim:", err)
		os.Exit(1)
	}
	opts, err := cli.ParseOptions(*order, *med)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibgpsim:", err)
		os.Exit(1)
	}
	codec, err := cli.ParseCodec(*codecName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibgpsim:", err)
		os.Exit(1)
	}
	var plan *ibgp.FaultPlan
	if *faultSpec != "" {
		if *substrate == "model" {
			fmt.Fprintln(os.Stderr, "ibgpsim: -faults needs an operational substrate (-substrate=sim or tcp)")
			os.Exit(1)
		}
		plan, err = ibgp.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibgpsim:", err)
			os.Exit(1)
		}
	}

	switch *substrate {
	case "model":
		runModel(sys, pol, opts, *schedule, *seed, *maxSteps, *showTr)
	case "sim":
		runMsgsim(sys, pol, opts, plan, *delay, *jitter, *mrai, *seed, *maxSteps, *showTr)
	case "tcp":
		runTCP(sys, pol, opts, plan, codec, *mrai, *wait, *showTr)
	default:
		fmt.Fprintf(os.Stderr, "ibgpsim: unknown substrate %q (model, sim or tcp)\n", *substrate)
		os.Exit(1)
	}
}

func runModel(sys *ibgp.System, pol ibgp.Policy, opts ibgp.Options, schedule string, seed int64, maxSteps int, showTr bool) {
	sch, err := cli.ParseSchedule(schedule, sys.N(), seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibgpsim:", err)
		os.Exit(1)
	}
	eng := ibgp.NewEngine(sys, pol, opts)
	rec := trace.NewRecorder(sys, 0)
	if showTr {
		eng.Observe(rec.Hook())
	}
	res := ibgp.Run(eng, sch, ibgp.RunOptions{MaxSteps: maxSteps})
	if showTr {
		rec.WriteTo(os.Stdout)
	}
	fmt.Println(trace.ResultLine(pol, res))
	if res.Outcome == ibgp.Converged {
		fmt.Print(trace.Summary(sys, res.Final))
		plane := ibgp.NewForwardingPlane(sys, res.Final)
		if loops := plane.Loops(); len(loops) > 0 {
			fmt.Printf("WARNING: forwarding loops at %d routers\n", len(loops))
		}
	}
	if res.Outcome == ibgp.Cycled {
		fmt.Printf("proved oscillation: state recurs with cycle length %d schedule periods\n", res.CycleLen)
	}
}

// printBest renders the per-router best-path table shared by the two
// operational substrates.
func printBest(sys *ibgp.System, best []ibgp.PathID) {
	for u := 0; u < sys.N(); u++ {
		b := "-"
		if best[u] != ibgp.None {
			b = fmt.Sprintf("p%d", best[u])
		}
		fmt.Printf("%-10s best=%s\n", sys.Name(ibgp.NodeID(u)), b)
	}
}

func runMsgsim(sys *ibgp.System, pol ibgp.Policy, opts ibgp.Options, plan *ibgp.FaultPlan, delay, jitter, mrai, seed int64, maxEvents int, showTrace bool) {
	var df ibgp.DelayFunc
	if jitter > 0 {
		var err error
		df, err = ibgp.RandomDelay(seed, delay, delay+jitter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibgpsim:", err)
			os.Exit(1)
		}
	} else {
		df = ibgp.ConstantDelay(delay)
	}
	s := ibgp.NewSim(sys, pol, opts, df)
	s.SetMRAI(mrai)
	if err := s.SetFaults(plan); err != nil {
		fmt.Fprintln(os.Stderr, "ibgpsim:", err)
		os.Exit(1)
	}
	if showTrace {
		s.ObserveEvents(printEvents(sys))
	}
	s.InjectAll()
	res := s.Run(maxEvents)
	fmt.Printf("policy=%-8s quiesced=%-5v events=%-7d messages=%-7d flaps=%-6d t=%d\n",
		pol, res.Quiesced, res.Events, res.Messages, res.Flaps, res.Time)
	fmt.Println(ibgp.CountersLine(s.Counters()))
	if fl := ibgp.FaultsLine(s.Counters()); fl != "" {
		fmt.Println(fl)
	}
	printBest(sys, res.Best)
	if !res.Quiesced {
		os.Exit(2)
	}
}

// printEvents returns a typed-event sink that prints each event's line in
// the shared trace rendering, the same on both operational substrates.
func printEvents(sys *ibgp.System) func(ibgp.RouterEvent) {
	render := ibgp.NewRouterEventRenderer(sys, false)
	return func(ev ibgp.RouterEvent) {
		if line := render(ev); line != "" {
			fmt.Println(line)
		}
	}
}

func runTCP(sys *ibgp.System, pol ibgp.Policy, opts ibgp.Options, plan *ibgp.FaultPlan, codec ibgp.Codec, mrai int64, wait time.Duration, showTrace bool) {
	n := ibgp.NewTCPNetwork(sys, pol, opts)
	n.SetCodec(codec)
	n.SetMRAI(mrai)
	if err := n.SetFaults(plan); err != nil {
		fmt.Fprintln(os.Stderr, "ibgpsim:", err)
		os.Exit(1)
	}
	if showTrace {
		n.Subscribe(printEvents(sys))
	}
	if err := n.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "ibgpsim:", err)
		os.Exit(1)
	}
	n.InjectAll()
	quiesced := n.WaitQuiesce(wait, 150*time.Millisecond)
	n.Stop() // nothing is traced past this point; the cores stay readable
	c := n.Counters()
	fmt.Printf("policy=%-8s quiesced=%-5v messages=%-7d flaps=%-6d\n",
		pol, quiesced, c.Sent, c.Flaps)
	fmt.Println(ibgp.CountersLine(c))
	if fl := ibgp.FaultsLine(c); fl != "" {
		fmt.Println(fl)
	}
	if sl := ibgp.SessionLine(c); sl != "" {
		fmt.Println(sl)
	}
	printBest(sys, n.BestAllFor(0))
	if !quiesced {
		os.Exit(2)
	}
}
