// Package ibgp is a library reproduction of "Route Oscillations in I-BGP
// with Route Reflection" (Basu, Ong, Rasala, Shepherd, Wilfong; SIGCOMM
// 2002).
//
// It provides:
//
//   - the paper's formal model of I-BGP with route reflection: physical
//     and logical graphs, exit paths, the Transfer announcement relation
//     and fair activation sequences (Build*, NewEngine, Run);
//   - three advertisement policies: Classic I-BGP, the Walton et al.
//     per-neighbouring-AS proposal, and the paper's Modified protocol that
//     advertises all MED survivors (Choose^B);
//   - exhaustive stability analysis for small systems — the decision
//     problem the paper proves NP-complete (Analyze, StableSolutions);
//   - the 3-SAT reduction behind that proof (ReduceSAT and friends);
//   - an asynchronous message-level simulator with scriptable delays
//     (NewSim) and real TCP speakers on the loopback interface
//     (NewTCPNetwork), both running the same operational protocol logic;
//   - forwarding-plane analysis: real routes, loop detection, and the
//     Lemma 7.6/7.7 checks (NewForwardingPlane);
//   - every configuration from the paper's figures (Fig1a .. Fig14).
//
// A minimal session:
//
//	fig := ibgp.Fig1a()
//	eng := ibgp.NewEngine(fig.Sys, ibgp.Classic, ibgp.Options{})
//	res := ibgp.Run(eng, ibgp.RoundRobin(fig.Sys.N()), ibgp.RunOptions{})
//	// res.Outcome == ibgp.Cycled: the persistent oscillation of Figure 1(a).
//
//	eng = ibgp.NewEngine(fig.Sys, ibgp.Modified, ibgp.Options{})
//	res = ibgp.Run(eng, ibgp.RoundRobin(fig.Sys.N()), ibgp.RunOptions{})
//	// res.Outcome == ibgp.Converged: the paper's fix.
package ibgp

import (
	"io"

	"repro/internal/bgp"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/forwarding"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/speaker"
	"repro/internal/topology"
)

// Core model types.
type (
	// NodeID identifies a router inside the AS.
	NodeID = bgp.NodeID
	// PathID identifies an exit path.
	PathID = bgp.PathID
	// ASN identifies a neighbouring autonomous system.
	ASN = bgp.ASN
	// PathSet is a set of exit paths.
	PathSet = bgp.PathSet
	// ExitPath is an E-BGP route injected into the AS (Section 4).
	ExitPath = bgp.ExitPath
	// Route is an exit path as evaluated at a particular router.
	Route = bgp.Route

	// System is an immutable AS description: routers, clusters, sessions,
	// links and exit paths.
	System = topology.System
	// Builder assembles a System.
	Builder = topology.Builder
	// ExitSpec describes an exit path to inject.
	ExitSpec = topology.ExitSpec
	// Spec is the JSON-serializable form of a System.
	Spec = topology.Spec
	// Role distinguishes reflectors from clients.
	Role = topology.Role

	// Engine executes the paper's activation model.
	Engine = protocol.Engine
	// Policy selects the advertisement behaviour.
	Policy = protocol.Policy
	// Schedule produces fair activation sequences.
	Schedule = protocol.Schedule
	// Result reports a protocol run.
	Result = protocol.Result
	// RunOptions tunes Run.
	RunOptions = protocol.RunOptions
	// Outcome classifies how a run ended.
	Outcome = protocol.Outcome
	// Snapshot captures a routing configuration.
	Snapshot = protocol.Snapshot

	// Options bundles the route-selection knobs.
	Options = selection.Options
	// Order selects the rule 4/5 ordering (paper vs RFC).
	Order = selection.Order
	// MEDMode selects per-neighbour-AS or always-compare MED semantics.
	MEDMode = selection.MEDMode

	// Fig is a constructed paper figure.
	Fig = figures.Fig
)

// None marks the absence of a path.
const None = bgp.None

// Roles.
const (
	Reflector = topology.Reflector
	Client    = topology.Client
)

// Advertisement policies.
const (
	// Classic is standard I-BGP: advertise only the best route.
	Classic = protocol.Classic
	// Walton is the Walton et al. fix: best route per neighbouring AS.
	Walton = protocol.Walton
	// Modified is the paper's fix: advertise all MED survivors.
	Modified = protocol.Modified
	// Adaptive is the Section 10 future-work variant: classic behaviour
	// until a router detects its own route oscillating, then Modified.
	Adaptive = protocol.Adaptive
)

// Selection orders (footnote 4 of the paper).
const (
	// PaperOrder prefers E-BGP before IGP cost (Cisco/Juniper; default).
	PaperOrder = selection.PaperOrder
	// RFCOrder compares IGP cost first (RFC 1771 reading).
	RFCOrder = selection.RFCOrder
)

// MED comparison modes.
const (
	// PerNeighborAS is standard MED semantics.
	PerNeighborAS = selection.PerNeighborAS
	// AlwaysCompare is the "always-compare-med" mitigation.
	AlwaysCompare = selection.AlwaysCompare
)

// Run outcomes.
const (
	Converged = protocol.Converged
	Cycled    = protocol.Cycled
	Exhausted = protocol.Exhausted
)

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder { return topology.NewBuilder() }

// FullMesh starts a fully-meshed I-BGP topology (each router its own
// client-less cluster) and returns the builder plus the node ids.
func FullMesh(names ...string) (*Builder, []NodeID) { return topology.FullMesh(names...) }

// BuildSpec converts a JSON Spec into a System.
func BuildSpec(spec *Spec) (*System, error) { return topology.BuildSpec(spec) }

// SaveSystem writes a System as indented JSON.
func SaveSystem(w io.Writer, sys *System) error { return topology.Save(w, sys) }

// LoadSystem reads a System from its JSON form.
func LoadSystem(r io.Reader) (*System, error) { return topology.Load(r) }

// NewEngine returns an engine over sys in the paper's initial
// configuration (every router knows exactly its own exit paths).
func NewEngine(sys *System, policy Policy, opts Options) *Engine {
	return protocol.New(sys, policy, opts)
}

// Run drives the engine until stability, a proved cycle, or step
// exhaustion.
func Run(e *Engine, sch Schedule, opts RunOptions) Result { return protocol.Run(e, sch, opts) }

// RunSeeds runs k seeded random fair schedules from the initial
// configuration and returns the per-seed results.
func RunSeeds(e *Engine, k, maxSteps int) []Result { return protocol.RunSeeds(e, k, maxSteps) }

// RoundRobin activates one node at a time in increasing order.
func RoundRobin(n int) Schedule { return protocol.RoundRobin(n) }

// AllAtOnce activates every node simultaneously each step (the synchronous
// model).
func AllAtOnce(n int) Schedule { return protocol.AllAtOnce(n) }

// PermutationRounds activates every node once per round, in a fresh seeded
// random order each round.
func PermutationRounds(n int, seed int64) Schedule { return protocol.PermutationRounds(n, seed) }

// SubsetRounds activates seeded random subsets, covering every node each
// round.
func SubsetRounds(n int, seed int64) Schedule { return protocol.SubsetRounds(n, seed) }

// FixedSchedule replays the given activation sets cyclically.
func FixedSchedule(sets ...[]NodeID) Schedule { return protocol.Fixed(sets...) }

// Fig1a is the persistent-oscillation configuration of Figure 1(a).
func Fig1a() *Fig { return figures.Fig1a() }

// Fig1b is the rule-ordering configuration of Figure 1(b).
func Fig1b() *Fig { return figures.Fig1b() }

// Fig2 is the transient-oscillation configuration of Figure 2.
func Fig2() *Fig { return figures.Fig2() }

// Fig3 is the message-delay configuration of Figure 3 / Table 1.
func Fig3() *Fig { return figures.Fig3() }

// Fig12 is the believed-vs-real route configuration of Figure 12.
func Fig12() *Fig { return figures.Fig12() }

// Fig13 is the pinned Walton-et-al. counterexample standing in for
// Figure 13.
func Fig13() *Fig { return figures.Fig13() }

// Fig14 is the Dube-Scudder routing-loop configuration of Figure 14.
func Fig14() *Fig { return figures.Fig14() }

// Analysis is the exhaustive reachable-state analysis of a system under a
// policy (see package explore): it decides the paper's STABLE I-BGP WITH
// ROUTE REFLECTION question for small systems.
type Analysis = explore.Analysis

// Analyze explores every configuration reachable from the cold start.
// When subsets is true every non-empty activation set is considered
// (exact, exponential in routers); otherwise single activations plus the
// synchronous full set.
func Analyze(sys *System, policy Policy, opts Options, subsets bool) Analysis {
	e := protocol.New(sys, policy, opts)
	mode := explore.SingletonsPlusAll
	if subsets {
		mode = explore.AllSubsets
	}
	return explore.Reachable(e, explore.Options{Mode: mode})
}

// StableSolutions enumerates every stable solution of the system under
// classic I-BGP, reachable or not.
func StableSolutions(sys *System, opts Options) []Snapshot {
	e := protocol.New(sys, Classic, opts)
	enum := explore.EnumerateStableClassic(e, 0)
	if enum.Truncated {
		return nil
	}
	return enum.Solutions
}

// ForwardingPlane exposes real-route computation over a snapshot.
type ForwardingPlane = forwarding.Plane

// ForwardingTrace is one packet's real route.
type ForwardingTrace = forwarding.Trace

// NewForwardingPlane builds the forwarding plane implied by a snapshot.
func NewForwardingPlane(sys *System, snap Snapshot) *ForwardingPlane {
	return forwarding.NewPlane(sys, snap)
}

// Message-level simulation (package msgsim).
type (
	// Sim is the asynchronous message-level simulator.
	Sim = msgsim.Sim
	// SimResult reports one simulation run.
	SimResult = msgsim.Result
	// DelayFunc assigns per-message transit delays.
	DelayFunc = msgsim.DelayFunc
)

// Shared operational router core (package router), driven by both the
// message-level simulator and the TCP speakers.
type (
	// RouterEvent is one typed operational event (BestChanged, UpdateSent,
	// PeerDown, FaultDrop, ReopenFailed, ...: the kinds below).
	RouterEvent = router.Event
	// RouterEventKind classifies a RouterEvent.
	RouterEventKind = router.EventKind
	// OperationalCounters is a point-in-time snapshot of the shared
	// substrate counters (flaps, messages, deferrals, drops, rejects).
	OperationalCounters = router.Snapshot
)

// Typed operational event kinds.
const (
	BestChanged    = router.BestChanged
	UpdateSent     = router.UpdateSent
	UpdateReceived = router.UpdateReceived
	MRAIDeferred   = router.MRAIDeferred
	Injected       = router.Injected
	Withdrawn      = router.Withdrawn
	PeerDown       = router.PeerDown
	PeerUp         = router.PeerUp
	FaultDrop      = router.FaultDrop
	FaultDuplicate = router.FaultDuplicate
	FaultDelay     = router.FaultDelay
	FaultReorder   = router.FaultReorder

	NotificationReceived = router.NotificationReceived
	BadFrame             = router.BadFrame
	HoldExpired          = router.HoldExpired
	RouteLoop            = router.RouteLoop
	ReopenFailed         = router.ReopenFailed
)

// NewSim creates a message-level simulator; inject routes with InjectAll
// or InjectPrefixAt (prefix 0), then Run.
func NewSim(sys *System, policy Policy, opts Options, delay DelayFunc) *Sim {
	return msgsim.New(sys, policy, opts, delay)
}

// ConstantDelay returns a fixed-delay model.
func ConstantDelay(d int64) DelayFunc { return msgsim.ConstantDelay(d) }

// RandomDelay returns a seeded uniform delay model on [min, max]; a
// reversed or negative range is rejected at construction.
func RandomDelay(seed, min, max int64) (DelayFunc, error) {
	return msgsim.RandomDelay(seed, min, max)
}

// MustRandomDelay is RandomDelay for ranges known valid at the call site;
// it panics on a bad range.
func MustRandomDelay(seed, min, max int64) DelayFunc {
	return msgsim.MustRandomDelay(seed, min, max)
}

// TCPNetwork runs the AS as concurrent speakers over loopback TCP.
type TCPNetwork = speaker.Network

// NewTCPNetwork assembles (without starting) a TCP speaker network.
func NewTCPNetwork(sys *System, policy Policy, opts Options) *TCPNetwork {
	return speaker.New(sys, policy, opts)
}

// Codec is a TCP speaker wire format; install one with
// TCPNetwork.SetCodec before Start.
type Codec = speaker.Codec

// Wire formats for TCPNetwork.SetCodec: the compact private codec (the
// default) and real BGP-4 messages per RFC 4271/4456/7911. Both are pure
// transport — the routing outcome is codec-independent.
var (
	PrivateCodec = speaker.PrivateCodec
	BGP4Codec    = speaker.BGP4
)

// Deterministic fault injection (package faults): seeded plans of
// wire-level fault fates — drop, duplicate, reorder, delay, session reset
// — installed on either substrate with SetFaults before the run.
type (
	// FaultPlan is a deterministic fault schedule; same plan, same fates.
	FaultPlan = faults.Plan
	// FaultReset schedules one session teardown and reopen.
	FaultReset = faults.Reset
)

// ParseFaultSpec parses the -faults CLI syntax, e.g.
// "seed=7,drop=0.05,dup=0.02,delay=0.2,maxdelay=30,reset=0-1@100+50,horizon=600".
func ParseFaultSpec(spec string) (*FaultPlan, error) { return faults.ParseSpec(spec) }

// RandomFaultPlan derives a pure fault plan from a seed for an n-router
// system (cfg bounds the intensity; see faults.RandomConfig).
func RandomFaultPlan(seed int64, n int, cfg faults.RandomConfig) (*FaultPlan, error) {
	return faults.RandomPlan(seed, n, cfg)
}
