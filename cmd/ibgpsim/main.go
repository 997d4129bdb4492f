// Command ibgpsim runs one protocol variant over a topology and reports
// the outcome. Three execution substrates are available: the paper's
// abstract activation model, the message-level discrete-event simulator,
// and real TCP speakers on the loopback interface. The two operational
// substrates drive the identical router core and share the typed-event
// trace rendering and operational counters.
//
// Usage:
//
//	ibgpsim -topology sys.json [-policy classic|walton|modified|adaptive]
//	        [-order paper|rfc] [-med standard|always]
//	        [-schedule roundrobin|allatonce|random|subsets] [-seed N]
//	        [-max-steps N] [-trace] [-figure 1a|1b|2|3|12|13|14]
//	        [-substrate model|sim|tcp] [-delay N] [-jitter N] [-mrai N]
//	        [-wait D] [-faults SPEC] [-codec private|bgp4]
//
// A bad flag value exits 2, and so does a flag the chosen substrate does
// not read (-seed too, unless -schedule random|subsets or -jitter uses
// it); -h shows each flag's range or names, and which substrates read it.
// Exit status 2 also means a sim or tcp run did not quiesce; a bad
// topology, figure or -faults plan exits 1.
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
	"math"
	"os"
	"time"

	ibgp "repro"
	"repro/internal/cli"
	"repro/internal/trace"
)

var (
	topoPath  = flag.String("topology", "", "topology JSON file")
	figure    = flag.String("figure", "", "paper figure: 1a, 1b, 2, 3, 12, 13, 14")
	policy    = cli.Choice("policy", "classic", "advertisement policy", cli.Policies)
	order     = cli.Choice("order", "paper", "rule order", cli.Orders)
	med       = cli.Choice("med", "standard", "MED mode", cli.MEDModes)
	schedule  = cli.Choice("schedule", "roundrobin", "activation schedule", cli.Schedules)
	seed      = cli.Int64("seed", 1, math.MinInt64, "seed for -schedule random|subsets and -jitter")
	maxSteps  = cli.Int("max-steps", 10000, 1, "activation / event budget")
	showTr    = flag.Bool("trace", false, "print per-event trace")
	substrate = cli.Choice("substrate", "model", "execution substrate", map[string]func(*ibgp.System, ibgp.Options, *ibgp.FaultPlan){
		"model": runModel, "sim": runMsgsim, "tcp": runTCP,
	})
	delay     = cli.Int64("delay", 10, 0, "base message delay")
	jitter    = cli.Int64("jitter", 0, 0, "random extra delay bound")
	mrai      = cli.Int64("mrai", 0, 0, "minimum route advertisement interval, sim ticks / tcp ms (0 off)")
	wait      = cli.Duration("wait", 5*time.Second, time.Nanosecond, "quiescence wait bound")
	faultSpec = flag.String("faults", "", `fault plan, e.g. "seed=7,drop=0.05,dup=0.02,delay=0.2,maxdelay=30,reset=0-1@100+50,horizon=600"`)
	codec     = cli.Choice("codec", "private", "wire format", cli.Codecs)
)

func main() {
	// The substrate-specific flags each substrate reads; every other flag is
	// read by all.
	cli.Parse(cli.Modes("substrate", map[string][]string{
		"model": {"schedule", "seed", "max-steps"},
		"sim":   {"delay", "jitter", "seed", "max-steps", "mrai", "faults"},
		"tcp":   {"wait", "codec", "mrai", "faults"},
	}))
	if need := seedReader(); need != "" {
		fmt.Fprintf(flag.CommandLine.Output(), "flag -seed is not read by -substrate %s unless %s\n",
			flag.Lookup("substrate").Value, need)
		flag.Usage()
		os.Exit(2)
	}
	sys, err := cli.LoadSystem(*topoPath, *figure)
	if err != nil {
		fatal(err)
	}
	var plan *ibgp.FaultPlan
	if *faultSpec != "" {
		plan, err = ibgp.ParseFaultSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
	}
	(*substrate)(sys, ibgp.Options{Order: *order, MED: *med}, plan)
}

// seedReader returns what would make the chosen substrate read an
// explicitly set -seed, or "" when it is read or unset: the model reads it
// only for its random and subsets schedules, the simulator only for jitter.
func seedReader() string {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "seed" })
	sched := flag.Lookup("schedule").Value.String()
	switch sub := flag.Lookup("substrate").Value.String(); {
	case set && sub == "model" && sched != "random" && sched != "subsets":
		return "-schedule is random or subsets"
	case set && sub == "sim" && *jitter == 0:
		return "-jitter is above 0"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibgpsim:", err)
	os.Exit(1)
}

func runModel(sys *ibgp.System, opts ibgp.Options, _ *ibgp.FaultPlan) {
	eng := ibgp.NewEngine(sys, *policy, opts)
	rec := trace.NewRecorder(sys, 0)
	if *showTr {
		eng.Observe(rec.Hook())
	}
	res := ibgp.Run(eng, (*schedule)(sys.N(), *seed), ibgp.RunOptions{MaxSteps: *maxSteps})
	if *showTr {
		rec.WriteTo(os.Stdout)
	}
	fmt.Println(trace.ResultLine(*policy, res))
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

func runMsgsim(sys *ibgp.System, opts ibgp.Options, plan *ibgp.FaultPlan) {
	var df ibgp.DelayFunc
	if *jitter > 0 {
		var err error
		df, err = ibgp.RandomDelay(*seed, *delay, *delay+*jitter)
		if err != nil {
			fatal(err)
		}
	} else {
		df = ibgp.ConstantDelay(*delay)
	}
	s := ibgp.NewSim(sys, *policy, opts, df)
	s.SetMRAI(*mrai)
	if err := s.SetFaults(plan); err != nil {
		fatal(err)
	}
	if *showTr {
		s.ObserveEvents(printEvents(sys))
	}
	s.InjectAll()
	res := s.Run(*maxSteps)
	fmt.Printf("policy=%-8s quiesced=%-5v events=%-7d messages=%-7d flaps=%-6d t=%d\n",
		*policy, res.Quiesced, res.Events, res.Messages, res.Flaps, res.Time)
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

func runTCP(sys *ibgp.System, opts ibgp.Options, plan *ibgp.FaultPlan) {
	n := ibgp.NewTCPNetwork(sys, *policy, opts)
	n.SetCodec(*codec)
	n.SetMRAI(*mrai)
	if err := n.SetFaults(plan); err != nil {
		fatal(err)
	}
	if *showTr {
		n.Subscribe(printEvents(sys))
	}
	if err := n.Start(); err != nil {
		fatal(err)
	}
	n.InjectAll()
	quiesced := n.WaitQuiesce(*wait, 150*time.Millisecond)
	n.Stop() // nothing is traced past this point; the cores stay readable
	c := n.Counters()
	fmt.Printf("policy=%-8s quiesced=%-5v messages=%-7d flaps=%-6d\n",
		*policy, quiesced, c.Sent, c.Flaps)
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
