// Package workload generates random route-reflection systems for the
// benchmark sweeps (E11, E13) and for the counterexample search that pins
// the paper's Figure 13 (a configuration on which the Walton et al. fix
// still oscillates while the modified protocol converges).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/bgp"
	"repro/internal/topology"
)

// Params describes a random system family.
type Params struct {
	// Clusters is the number of route-reflection clusters.
	Clusters int
	// MinClients/MaxClients bound the clients per cluster.
	MinClients, MaxClients int
	// ASes is the number of neighbouring autonomous systems.
	ASes int
	// Exits is the total number of exit paths to inject.
	Exits int
	// MaxMED bounds MED values (inclusive); MEDs are drawn from [0, MaxMED].
	MaxMED int
	// MaxCost bounds IGP link costs (drawn from [1, MaxCost]).
	MaxCost int64
	// ExtraLinks adds this many random physical links beyond the spanning
	// structure.
	ExtraLinks int
}

// Validate rejects parameter sets that would generate degenerate systems
// (or panic the generator's RNG draws). All generators call it, so a bad
// family fails fast instead of producing misleading census samples.
func (p Params) Validate() error {
	switch {
	case p.Clusters < 1:
		return fmt.Errorf("workload: Clusters = %d, need at least one cluster", p.Clusters)
	case p.MinClients < 0 || p.MaxClients < p.MinClients:
		return fmt.Errorf("workload: bad client bounds [%d,%d]", p.MinClients, p.MaxClients)
	case p.ASes < 1:
		return fmt.Errorf("workload: ASes = %d, need at least one neighbouring AS", p.ASes)
	case p.Exits < 1:
		return fmt.Errorf("workload: Exits = %d, need at least one exit path", p.Exits)
	case p.MaxMED < 0:
		return fmt.Errorf("workload: MaxMED = %d, must be non-negative", p.MaxMED)
	case p.MaxCost < 1:
		return fmt.Errorf("workload: MaxCost = %d, must be positive", p.MaxCost)
	case p.ExtraLinks < 0:
		return fmt.Errorf("workload: ExtraLinks = %d, must be non-negative", p.ExtraLinks)
	}
	return nil
}

// Default returns a medium-sized family: c clusters with up to 3 clients,
// 3 neighbouring ASes and 2 exit paths per cluster on average.
func Default(c int) Params {
	return Params{
		Clusters:   c,
		MinClients: 1,
		MaxClients: 3,
		ASes:       3,
		Exits:      2 * c,
		MaxMED:     2,
		MaxCost:    20,
		ExtraLinks: 2 * c,
	}
}

// Generate builds a random system from the family. The same seed always
// produces the same system.
func Generate(p Params, seed int64) (*topology.System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := topology.NewBuilder()

	var all []bgp.NodeID
	var clients []bgp.NodeID
	for c := 0; c < p.Clusters; c++ {
		k := b.NewCluster()
		rr := b.Reflector(fmt.Sprintf("rr%d", c), k)
		all = append(all, rr)
		n := p.MinClients
		if p.MaxClients > p.MinClients {
			n += rng.Intn(p.MaxClients - p.MinClients + 1)
		}
		for i := 0; i < n; i++ {
			cl := b.Client(fmt.Sprintf("c%d_%d", c, i), k)
			all = append(all, cl)
			clients = append(clients, cl)
		}
	}
	// Random spanning tree for connectivity.
	cost := func() int64 { return 1 + rng.Int63n(p.MaxCost) }
	for i := 1; i < len(all); i++ {
		j := rng.Intn(i)
		b.Link(all[i], all[j], cost())
	}
	for i := 0; i < p.ExtraLinks; i++ {
		u, v := rng.Intn(len(all)), rng.Intn(len(all))
		if u != v {
			b.Link(all[u], all[v], cost())
		}
	}
	// Exit paths at random routers (clients preferred when present).
	for i := 0; i < p.Exits; i++ {
		at := all[rng.Intn(len(all))]
		if len(clients) > 0 && rng.Intn(4) != 0 {
			at = clients[rng.Intn(len(clients))]
		}
		b.Exit(at, topology.ExitSpec{
			NextAS: bgp.ASN(1 + rng.Intn(p.ASes)),
			MED:    rng.Intn(p.MaxMED + 1),
		})
	}
	return b.Build()
}

// MustGenerate is Generate panicking on error, for benchmarks.
func MustGenerate(p Params, seed int64) *topology.System {
	sys, err := Generate(p, seed)
	if err != nil {
		panic(err)
	}
	return sys
}

// CrossedSpec is the structured family for the Figure 13 search: k
// clusters whose clients sit physically *near other clusters' reflectors*
// ("dotted" IGP links, as in Figure 2), so that equal-MED routes through a
// shared AS hide each other by IGP metric — the only hiding mechanism that
// survives the Walton et al. per-AS advertisement.
type CrossedSpec struct {
	Clusters    int
	TwoClientOn int // index of a cluster that gets a second client (-1: none)
	ASes        int
	MaxMED      int
	DottedProb  float64 // probability of a client-to-foreign-reflector link
}

// Validate rejects crossed-family shapes the sampler cannot realise.
func (spec CrossedSpec) Validate() error {
	switch {
	case spec.Clusters < 1:
		return fmt.Errorf("workload: CrossedSpec.Clusters = %d, need at least one cluster", spec.Clusters)
	case spec.TwoClientOn >= spec.Clusters:
		return fmt.Errorf("workload: CrossedSpec.TwoClientOn = %d out of range (have %d clusters)", spec.TwoClientOn, spec.Clusters)
	case spec.ASes < 1:
		return fmt.Errorf("workload: CrossedSpec.ASes = %d, need at least one neighbouring AS", spec.ASes)
	case spec.MaxMED < 0:
		return fmt.Errorf("workload: CrossedSpec.MaxMED = %d, must be non-negative", spec.MaxMED)
	case spec.DottedProb < 0 || spec.DottedProb > 1:
		return fmt.Errorf("workload: CrossedSpec.DottedProb = %g, must be a probability", spec.DottedProb)
	}
	return nil
}

// SampleCrossed draws one configuration from the crossed family.
func SampleCrossed(spec CrossedSpec, seed int64) (*topology.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := topology.NewBuilder()
	var rrs []bgp.NodeID
	var clients []bgp.NodeID
	var clientRR []int
	for c := 0; c < spec.Clusters; c++ {
		k := b.NewCluster()
		rr := b.Reflector(fmt.Sprintf("RR%d", c+1), k)
		rrs = append(rrs, rr)
		n := 1
		if c == spec.TwoClientOn {
			n = 2
		}
		for i := 0; i < n; i++ {
			cl := b.Client(fmt.Sprintf("C%d_%d", c+1, i), k)
			clients = append(clients, cl)
			clientRR = append(clientRR, c)
		}
	}
	// Reflector ring backbone with short links.
	for i := range rrs {
		b.Link(rrs[i], rrs[(i+1)%len(rrs)], 1+rng.Int63n(10))
	}
	// Own-cluster client links: long.
	for i, cl := range clients {
		b.Link(rrs[clientRR[i]], cl, 5+rng.Int63n(26))
	}
	// Dotted links: clients near foreign reflectors: short.
	for i, cl := range clients {
		for c := range rrs {
			if c != clientRR[i] && rng.Float64() < spec.DottedProb {
				b.Link(rrs[c], cl, 1+rng.Int63n(10))
			}
		}
	}
	for _, cl := range clients {
		b.Exit(cl, topology.ExitSpec{
			NextAS: bgp.ASN(1 + rng.Intn(spec.ASes)),
			MED:    rng.Intn(spec.MaxMED + 1),
		})
	}
	return b.Build()
}
