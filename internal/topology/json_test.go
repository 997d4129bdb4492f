package topology

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bgp"
)

// validSpecJSON is a minimal two-cluster configuration the error-path
// tests then corrupt.
const validSpecJSON = `{
  "clusters": [
    {"reflectors": ["r1"], "clients": ["c1"]},
    {"reflectors": ["r2"], "clients": ["c2"]}
  ],
  "links": [
    {"a": "r1", "b": "c1", "cost": 1},
    {"a": "r2", "b": "c2", "cost": 1},
    {"a": "r1", "b": "r2", "cost": 1}
  ],
  "exits": [
    {"at": "c1", "nextAS": 1, "med": 0},
    {"at": "c2", "nextAS": 2, "med": 5}
  ]
}`

func TestLoadValidSpec(t *testing.T) {
	sys, err := Load(strings.NewReader(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 4 {
		t.Fatalf("N = %d, want 4", sys.N())
	}
}

// validSpec decodes validSpecJSON for a test to break.
func validSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := ParseSpec(strings.NewReader(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLoadErrorPaths is the one table of rejected specs. Inputs that do
// not decode name the ParseSpec error; every other case breaks the valid
// two-cluster spec and names a problem, with its rule, that Check must
// report. Check, BuildSpec, BuildSpecAll and Load must then fail with the
// same problems.
func TestLoadErrorPaths(t *testing.T) {
	intp := func(i int) *int { return &i }
	tests := []struct {
		name   string
		json   string      // an input ParseSpec rejects
		mutate func(*Spec) // or a break of validSpec
		rule   Rule
		part   string
	}{
		{name: "malformed JSON", json: `{"clusters": [`, part: "decoding spec"},
		{name: "unknown field", json: `{"clusters": [{"reflectors": ["r"]}], "subASes": []}`, part: "unknown field"},
		{name: "malformed MED string", json: `{"clusters": [{"reflectors": ["r"]}], "exits": [{"at": "r", "nextAS": 1, "med": "ten"}]}`,
			part: "decoding spec"},
		{name: "trailing data", json: validSpecJSON + `{"clusters":[]} trailing junk`, part: "trailing data"},
		{name: "trailing garbage", json: validSpecJSON + `}`, part: "trailing data"},
		{name: "no routers", mutate: func(s *Spec) { *s = Spec{} }, rule: ClusterRule, part: "no routers"},
		{name: "empty cluster", mutate: func(s *Spec) { s.Clusters = append(s.Clusters, ClusterSpec{}) },
			rule: ClusterRule, part: "cluster 2 is empty"},
		{name: "client with no reflector", mutate: func(s *Spec) { s.Clusters[0].Reflectors = nil },
			rule: ClusterRule, part: "cluster 0 has clients c1 but no route reflector"},
		{name: "duplicate node names across clusters", mutate: func(s *Spec) {
			s.Clusters[1].Clients = []string{"c1"}
		}, rule: ClusterRule, part: `router "c1" is declared twice (clusters 0 and 1)`},
		{name: "duplicate node name within a cluster", mutate: func(s *Spec) {
			s.Clusters[0].Clients = []string{"c1", "c1"}
		}, rule: ClusterRule, part: `router "c1" is declared twice (clusters 0 and 0)`},
		{name: "dual-role node", mutate: func(s *Spec) {
			s.Clusters[1].Clients = append(s.Clusters[1].Clients, "r1")
		}, rule: ClusterRule, part: "non-hierarchical reflection"},
		{name: "forward cluster parent", mutate: func(s *Spec) { s.Clusters[0].Parent = intp(1) },
			rule: ClusterRule, part: "cluster 0 has invalid parent 1"},
		{name: "out-of-range cluster parent", mutate: func(s *Spec) { s.Clusters[1].Parent = intp(9) },
			rule: ClusterRule, part: "cluster 1 has invalid parent 9"},
		{name: "negative cluster parent", mutate: func(s *Spec) { s.Clusters[1].Parent = intp(-1) },
			rule: ClusterRule, part: "cluster 1 has invalid parent -1"},
		{name: "self parent", mutate: func(s *Spec) { s.Clusters[0].Parent = intp(0) },
			rule: ClusterRule, part: "cluster 0 has invalid parent 0"},
		// Parents must be earlier clusters, so a cycle always has a
		// forward edge: the invalid-parent rule is the cycle rule.
		{name: "cluster parent cycle", mutate: func(s *Spec) {
			s.Clusters[0].Parent, s.Clusters[1].Parent = intp(1), intp(0)
		}, rule: ClusterRule, part: "cluster 0 has invalid parent 1"},
		{name: "client session across clusters", mutate: func(s *Spec) {
			s.ClientSessions = []SessionSpec{{A: "c1", B: "c2"}}
		}, rule: ClusterRule, part: "client session 0 (c1-c2) must join two clients of one cluster"},
		{name: "unknown router in link", mutate: func(s *Spec) { s.Links[0].B = "ghost" },
			rule: ReferenceRule, part: `link 0 references unknown router "ghost"`},
		{name: "unknown router in exit", mutate: func(s *Spec) { s.Exits[0].At = "nowhere" },
			rule: ReferenceRule, part: `exit 0 references unknown router "nowhere"`},
		{name: "unknown router in bgpIds", mutate: func(s *Spec) { s.BGPIDs = map[string]int{"phantom": 7} },
			rule: ReferenceRule, part: `bgpIds override references unknown router "phantom"`},
		{name: "unknown router in client session", mutate: func(s *Spec) {
			s.ClientSessions = []SessionSpec{{A: "c1", B: "missing"}}
		}, rule: ReferenceRule, part: `client session 0 references unknown router "missing"`},
		{name: "unknown router in prefixExits", mutate: func(s *Spec) {
			s.PrefixExits = [][]ExitJSON{{{At: "c1", NextAS: 1}}, {{At: "nope", NextAS: 1}}}
		}, rule: ReferenceRule, part: `prefix 2 exit 0 references unknown router "nope"`},
		{name: "self link", mutate: func(s *Spec) { s.Links[0].B = "r1" },
			rule: ReferenceRule, part: `link 0 connects "r1" to itself`},
		{name: "duplicate BGP ids", mutate: func(s *Spec) { s.BGPIDs = map[string]int{"c1": 42, "c2": 42} },
			rule: ReferenceRule, part: `routers "c1" and "c2" share BGP id 42`},
		{name: "negative MED rejected at build", mutate: func(s *Spec) { s.Exits[0].MED = -4 },
			rule: AttributeRule, part: `exit 0 at "c1" has malformed MED -4`},
		{name: "negative LOCAL-PREF", mutate: func(s *Spec) { s.Exits[1].LocalPref = -1 },
			rule: AttributeRule, part: `exit 1 at "c2" has malformed LOCAL-PREF -1`},
		{name: "negative exit cost", mutate: func(s *Spec) { s.Exits[1].ExitCost = -2 },
			rule: AttributeRule, part: `exit 1 at "c2" has malformed exit cost -2`},
		{name: "negative MED in prefixExits", mutate: func(s *Spec) {
			s.PrefixExits = [][]ExitJSON{{{At: "c2", NextAS: 1, MED: -5}}}
		}, rule: AttributeRule, part: `prefix 1 exit 0 at "c2" has malformed MED -5`},
		{name: "negative link cost", mutate: func(s *Spec) { s.Links[0].Cost = -1 },
			rule: AttributeRule, part: "link 0 has non-positive cost -1"},
		{name: "zero link cost", mutate: func(s *Spec) { s.Links[2].Cost = 0 },
			rule: AttributeRule, part: "link 2 has non-positive cost 0"},
		{name: "disconnected physical graph", mutate: func(s *Spec) { s.Links = s.Links[:2] },
			rule: ConnectivityRule, part: `physical graph G_P is not connected: r2, c2 unreachable from "r1"`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mutate == nil {
				_, err := ParseSpec(strings.NewReader(tc.json))
				if err == nil || !strings.Contains(err.Error(), tc.part) {
					t.Fatalf("ParseSpec error = %v, want mention of %q", err, tc.part)
				}
				if _, err := Load(strings.NewReader(tc.json)); err == nil {
					t.Fatal("Load accepted input ParseSpec rejects")
				}
				return
			}
			spec := validSpec(t)
			tc.mutate(spec)
			ps := Check(spec)
			found := false
			for _, p := range ps {
				found = found || (p.Rule == tc.rule && strings.Contains(p.Detail, tc.part))
			}
			if !found {
				t.Fatalf("Check reports no rule-%d problem mentioning %q; got %+v", tc.rule, tc.part, ps)
			}
			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			_, errLoad := Load(bytes.NewReader(data))
			_, errSpec := BuildSpec(spec)
			_, errAll := BuildSpecAll(spec)
			for _, err := range []error{errLoad, errSpec, errAll} {
				var got Problems
				if !errors.As(err, &got) || !reflect.DeepEqual(got, ps) {
					t.Fatalf("build error = %v, want Check's problems %+v", err, ps)
				}
			}
		})
	}
}

// TestParseSpecDoesNotValidate pins the split the static analyzer relies
// on: ParseSpec accepts structurally broken (but well-formed JSON) specs
// that BuildSpec then rejects.
func TestParseSpecDoesNotValidate(t *testing.T) {
	broken := `{
  "clusters": [{"clients": ["orphan"]}],
  "links": [],
  "exits": [{"at": "orphan", "nextAS": 1, "med": -1}]
}`
	spec, err := ParseSpec(strings.NewReader(broken))
	if err != nil {
		t.Fatalf("ParseSpec rejected decodable JSON: %v", err)
	}
	if len(spec.Clusters) != 1 || spec.Exits[0].MED != -1 {
		t.Fatalf("ParseSpec mangled the spec: %+v", spec)
	}
	if _, err := BuildSpec(spec); err == nil {
		t.Fatal("BuildSpec accepted a spec with a negative MED")
	}
}

// TestSaveLoadRoundTrip checks Save's output reloads into an equivalent
// system, BGP id overrides included.
func TestSaveLoadRoundTrip(t *testing.T) {
	sys, err := Load(strings.NewReader(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	sys2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Save output does not reload: %v\n%s", err, buf.String())
	}
	if sys2.N() != sys.N() || sys2.NumClusters() != sys.NumClusters() {
		t.Fatalf("round trip changed shape: N %d->%d, clusters %d->%d",
			sys.N(), sys2.N(), sys.NumClusters(), sys2.NumClusters())
	}
	for u := 0; u < sys.N(); u++ {
		if sys2.BGPID(bgp.NodeID(u)) != sys.BGPID(bgp.NodeID(u)) {
			t.Fatalf("BGP id not preserved for node %q", sys.Name(bgp.NodeID(u)))
		}
	}
}
