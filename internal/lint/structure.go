package lint

import "repro/internal/topology"

// structuralPasses are the registry entries of the model's structural rule
// families, one per topology.Rule and in Rule order. The rules themselves
// live in package topology; lintSpec reports each problem topology.Check
// finds as an Error finding of its rule's pass.
func structuralPasses() []Pass {
	return []Pass{
		{
			Name: "cluster-structure",
			Doc:  "clusters have reflectors, parents are earlier clusters, routers have one role, client sessions stay in a cluster",
			Ref:  "Section 4, model constraints 1-4",
		},
		{
			Name: "node-references",
			Doc:  "links, sessions, exits and BGP ids reference declared routers; links join two routers; BGP ids are unique",
			Ref:  "Section 4, Modeling Communication",
		},
		{
			Name: "attributes",
			Doc:  "link costs are positive; MED, LOCAL-PREF and exit costs are non-negative, for every prefix",
			Ref:  "Section 2, route selection attributes",
		},
		{
			Name: "connectivity",
			Doc:  "the physical graph G_P is connected",
			Ref:  "Section 4, the physical graph G_P",
		},
	}
}

// structuralReport is the FAIL report of a spec with structural problems.
func structuralReport(source string, problems topology.Problems) *Report {
	passes := structuralPasses()
	r := &Report{Source: source, Verdict: VerdictFail}
	for _, p := range problems {
		pass := passes[p.Rule]
		r.Findings = append(r.Findings, Finding{
			Pass: pass.Name, Severity: Error, Ref: pass.Ref,
			Nodes: p.Nodes, Detail: p.Detail,
		})
	}
	return r
}
