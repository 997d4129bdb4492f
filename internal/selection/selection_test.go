package selection

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bgp"
)

// mk builds a candidate route for tests.
func mk(id bgp.PathID, lp, aspl int, as bgp.ASN, med int, metric int64, ebgp bool, lf int) bgp.Route {
	at := bgp.NodeID(0)
	exit := bgp.NodeID(1)
	if ebgp {
		exit = at
	}
	return bgp.Route{
		Path: bgp.ExitPath{
			ID: id, LocalPref: lp, ASPathLen: aspl, NextAS: as, MED: med, ExitPoint: exit,
		},
		At:          at,
		Metric:      metric,
		LearnedFrom: lf,
	}
}

// best is the full selection procedure over a copy of rs.
func best(rs []bgp.Route, opts Options) (bgp.Route, bool) {
	return BestInPlace(slices.Clone(rs), opts)
}

// survivorsB is Choose^B over a copy of paths, sorted by PathID.
func survivorsB(paths []bgp.ExitPath, mode MEDMode) []bgp.ExitPath {
	surv := SurvivorsBInPlace(slices.Clone(paths), mode, nil)
	slices.SortFunc(surv, func(a, b bgp.ExitPath) int { return int(a.ID) - int(b.ID) })
	return surv
}

// walton runs WaltonInto over every route of rs, whose path IDs must be
// 0..len(rs)-1 in order, and returns the advertise set in PathID order.
func walton(rs []bgp.Route, opts Options) []bgp.PathID {
	exits := make([]bgp.ExitPath, len(rs))
	var all, out, in, surv bgp.PathSet
	for i, r := range rs {
		exits[i] = r.Path
		all.Add(r.Path.ID)
	}
	NewDominance(exits, opts.MED).WaltonInto(&out, &in, &surv, all, opts.Order, func(s bgp.PathSet) []bgp.Route {
		var sel []bgp.Route
		s.ForEach(func(id bgp.PathID) { sel = append(sel, rs[id]) })
		return sel
	})
	return out.IDs()
}

// bestPerAS is Section 8's per-AS step: for each neighbouring AS among
// rs, the winner of the full procedure over that AS's routes alone.
func bestPerAS(rs []bgp.Route, opts Options) []bgp.Route {
	var out []bgp.Route
	for i, r := range rs {
		if slices.ContainsFunc(rs[:i], func(q bgp.Route) bool { return q.Path.NextAS == r.Path.NextAS }) {
			continue
		}
		var group []bgp.Route
		for _, q := range rs {
			if q.Path.NextAS == r.Path.NextAS {
				group = append(group, q)
			}
		}
		w, _ := best(group, opts)
		out = append(out, w)
	}
	return out
}

func bestID(t *testing.T, rs []bgp.Route, opts Options) bgp.PathID {
	t.Helper()
	w, ok := best(rs, opts)
	if !ok {
		t.Fatal("Best returned no route")
	}
	return w.Path.ID
}

func TestBestEmpty(t *testing.T) {
	if _, ok := best(nil, Options{}); ok {
		t.Fatal("Best of empty set returned a route")
	}
}

func TestRule1LocalPref(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 0, 1, false, 1),
		mk(1, 200, 9, 2, 9, 999, false, 9), // worse on everything except LP
	}
	if got := bestID(t, rs, Options{}); got != 1 {
		t.Fatalf("best = p%d, want p1 (highest LOCAL-PREF wins)", got)
	}
}

func TestRule2ASPathLen(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 3, 1, 0, 1, true, 1),
		mk(1, 100, 2, 2, 9, 999, false, 9),
	}
	if got := bestID(t, rs, Options{}); got != 1 {
		t.Fatalf("best = p%d, want p1 (shortest AS-PATH wins)", got)
	}
}

func TestRule3MEDPerAS(t *testing.T) {
	// p0 and p1 share AS 1; p1 has the lower MED and must eliminate p0,
	// even though p0 has the better metric. p2 is in AS 2 and unaffected.
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 5, 1, false, 1),
		mk(1, 100, 1, 1, 2, 50, false, 2),
		mk(2, 100, 1, 2, 9, 10, false, 3),
	}
	if got := bestID(t, rs, Options{}); got != 2 {
		t.Fatalf("best = p%d, want p2 (p0 MED-eliminated, p1 metric 50 > p2 metric 10)", got)
	}
}

func TestRule3MEDAcrossASNotCompared(t *testing.T) {
	// Different ASes: the huge MED of p0 is irrelevant.
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 999, 1, false, 1),
		mk(1, 100, 1, 2, 0, 2, false, 2),
	}
	if got := bestID(t, rs, Options{}); got != 0 {
		t.Fatalf("best = p%d, want p0 (MEDs across ASes not compared)", got)
	}
}

func TestAlwaysCompareMED(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 999, 1, false, 1),
		mk(1, 100, 1, 2, 0, 2, false, 2),
	}
	if got := bestID(t, rs, Options{MED: AlwaysCompare}); got != 1 {
		t.Fatalf("best = p%d, want p1 under always-compare-med", got)
	}
}

func TestRule45PaperOrderEBGPFirst(t *testing.T) {
	// Paper order: the E-BGP route wins despite its worse metric.
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 0, 50, true, 1),
		mk(1, 100, 1, 2, 0, 1, false, 2),
	}
	if got := bestID(t, rs, Options{Order: PaperOrder}); got != 0 {
		t.Fatalf("best = p%d, want p0 (E-BGP preferred before metric)", got)
	}
	// RFC order: minimum metric first.
	if got := bestID(t, rs, Options{Order: RFCOrder}); got != 1 {
		t.Fatalf("best = p%d, want p1 (metric before E-BGP preference)", got)
	}
}

func TestRFCOrderEBGPBreaksMetricTie(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 0, 7, false, 1),
		mk(1, 100, 1, 2, 0, 7, true, 2),
	}
	if got := bestID(t, rs, Options{Order: RFCOrder}); got != 1 {
		t.Fatalf("best = p%d, want p1 (E-BGP wins metric ties under RFC order)", got)
	}
}

func TestRule5MetricAmongIBGP(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 0, 9, false, 1),
		mk(1, 100, 1, 2, 0, 3, false, 2),
	}
	if got := bestID(t, rs, Options{}); got != 1 {
		t.Fatalf("best = p%d, want p1 (lowest metric)", got)
	}
}

func TestRule6LearnedFrom(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 0, 7, false, 20),
		mk(1, 100, 1, 2, 0, 7, false, 10),
	}
	if got := bestID(t, rs, Options{}); got != 1 {
		t.Fatalf("best = p%d, want p1 (lowest learnedFrom id)", got)
	}
}

func TestFinalTieBreakPathID(t *testing.T) {
	rs := []bgp.Route{
		mk(1, 100, 1, 2, 0, 7, false, 10),
		mk(0, 100, 1, 1, 0, 7, false, 10),
	}
	if got := bestID(t, rs, Options{}); got != 0 {
		t.Fatalf("best = p%d, want p0 (PathID as last resort)", got)
	}
}

func TestBestPermutationInvariant(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 2, 1, 3, 10, false, 5),
		mk(1, 100, 2, 1, 1, 20, false, 6),
		mk(2, 100, 2, 2, 0, 15, true, 7),
		mk(3, 90, 1, 3, 0, 1, true, 8),
		mk(4, 100, 2, 2, 0, 15, false, 4),
	}
	for _, opts := range []Options{{}, {Order: RFCOrder}, {MED: AlwaysCompare}} {
		want := bestID(t, rs, opts)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 30; i++ {
			perm := make([]bgp.Route, len(rs))
			for j, k := range rng.Perm(len(rs)) {
				perm[j] = rs[k]
			}
			if got := bestID(t, perm, opts); got != want {
				t.Fatalf("opts %+v: permutation changed winner: p%d vs p%d", opts, got, want)
			}
		}
	}
}

func randomRoutes(rng *rand.Rand, n int) []bgp.Route {
	rs := make([]bgp.Route, n)
	for i := range rs {
		rs[i] = mk(bgp.PathID(i),
			90+rng.Intn(3),         // localPref
			1+rng.Intn(3),          // as-path length
			bgp.ASN(1+rng.Intn(3)), // nextAS
			rng.Intn(3),            // MED
			int64(1+rng.Intn(20)),  // metric
			rng.Intn(2) == 0,       // ebgp
			1+rng.Intn(100),        // learnedFrom
		)
	}
	return rs
}

func TestQuickBestIsAMEDSurvivor(t *testing.T) {
	// The winner of the full procedure is always in Choose^B of the same
	// set of exit paths (the paper's observation that Choose_best factors
	// through Choose^B).
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRoutes(rng, 1+rng.Intn(8))
		for _, mode := range []MEDMode{PerNeighborAS, AlwaysCompare} {
			w, ok := best(rs, Options{MED: mode})
			if !ok {
				return false
			}
			paths := make([]bgp.ExitPath, len(rs))
			for i, r := range rs {
				paths[i] = r.Path
			}
			found := false
			for _, p := range survivorsB(paths, mode) {
				if p.ID == w.Path.ID {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSurvivorsBIdempotent(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRoutes(rng, 1+rng.Intn(10))
		paths := make([]bgp.ExitPath, len(rs))
		for i, r := range rs {
			paths[i] = r.Path
		}
		for _, mode := range []MEDMode{PerNeighborAS, AlwaysCompare} {
			once := survivorsB(paths, mode)
			twice := survivorsB(once, mode)
			if len(once) != len(twice) {
				return false
			}
			for i := range once {
				if once[i].ID != twice[i].ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSurvivorsBSoundness(t *testing.T) {
	// Every survivor has maximal LOCAL-PREF, minimal AS-PATH among those,
	// and minimal MED within its AS group; every non-survivor fails one of
	// these.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRoutes(rng, 1+rng.Intn(10))
		paths := make([]bgp.ExitPath, len(rs))
		for i, r := range rs {
			paths[i] = r.Path
		}
		surv := survivorsB(paths, PerNeighborAS)
		in := map[bgp.PathID]bool{}
		for _, p := range surv {
			in[p.ID] = true
		}
		maxLP := paths[0].LocalPref
		for _, p := range paths {
			if p.LocalPref > maxLP {
				maxLP = p.LocalPref
			}
		}
		minLen := 1 << 30
		for _, p := range paths {
			if p.LocalPref == maxLP && p.ASPathLen < minLen {
				minLen = p.ASPathLen
			}
		}
		minMED := map[bgp.ASN]int{}
		for _, p := range paths {
			if p.LocalPref == maxLP && p.ASPathLen == minLen {
				if m, ok := minMED[p.NextAS]; !ok || p.MED < m {
					minMED[p.NextAS] = p.MED
				}
			}
		}
		for _, p := range paths {
			expect := p.LocalPref == maxLP && p.ASPathLen == minLen && p.MED == minMED[p.NextAS]
			if _, seen := minMED[p.NextAS]; !seen {
				expect = false
			}
			if in[p.ID] != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSurvivorsBEmpty(t *testing.T) {
	var out bgp.PathSet
	NewDominance(nil, PerNeighborAS).SurvivorsInto(&out, bgp.PathSet{})
	if got := survivorsB(nil, PerNeighborAS); got != nil || out.Len() != 0 {
		t.Fatalf("Choose^B of nothing = %v, %v", got, out)
	}
}

// TestBestPerAS: one winner per neighbouring AS, each the best through
// that AS alone; both tie on rules 1 and 2, so Walton announces both.
func TestBestPerAS(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 0, 10, false, 1),
		mk(1, 100, 1, 1, 0, 5, false, 2),
		mk(2, 100, 1, 2, 0, 50, false, 3),
	}
	if ws := walton(rs, Options{}); !slices.Equal(ws, []bgp.PathID{1, 2}) {
		t.Fatalf("Walton set = %v, want p1 (AS 1) and p2 (AS 2)", ws)
	}
}

func TestWaltonSetFiltersByOverallBestAttrs(t *testing.T) {
	// p0 (AS 1) is the overall best; p1 is the best through AS 2 but has a
	// longer AS-PATH, so Walton does not advertise it.
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 0, 5, false, 1),
		mk(1, 100, 2, 2, 0, 1, false, 2),
	}
	if ws := walton(rs, Options{}); !slices.Equal(ws, []bgp.PathID{0}) {
		t.Fatalf("Walton set = %v, want just p0", ws)
	}
}

func TestWaltonSetOnePerAS(t *testing.T) {
	rs := []bgp.Route{
		mk(0, 100, 1, 1, 0, 5, false, 1),
		mk(1, 100, 1, 1, 0, 9, false, 2),
		mk(2, 100, 1, 2, 0, 1, false, 3),
		mk(3, 100, 1, 2, 0, 2, false, 4),
	}
	if ws := walton(rs, Options{}); !slices.Equal(ws, []bgp.PathID{0, 2}) {
		t.Fatalf("Walton set = %v; want p0, p2 (one per AS)", ws)
	}
}

func TestWaltonSetEmpty(t *testing.T) {
	if ws := walton(nil, Options{}); len(ws) != 0 {
		t.Fatalf("Walton set of nothing = %v", ws)
	}
}

// TestQuickWaltonContainsOverallBest: the Walton set holds the overall
// best route, and it is exactly Section 8's definition: the per-AS winners
// with the overall best's LOCAL-PREF and AS-PATH length.
func TestQuickWaltonContainsOverallBest(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRoutes(rng, 1+rng.Intn(24))
		for _, opts := range []Options{{}, {Order: RFCOrder}, {MED: AlwaysCompare}, {Order: RFCOrder, MED: AlwaysCompare}} {
			w, _ := best(rs, opts)
			var want []bgp.PathID
			for _, r := range bestPerAS(rs, opts) {
				if r.Path.LocalPref == w.Path.LocalPref && r.Path.ASPathLen == w.Path.ASPathLen {
					want = append(want, r.Path.ID)
				}
			}
			slices.Sort(want)
			if got := walton(rs, opts); !slices.Equal(got, want) || !slices.Contains(got, w.Path.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceBest is a clarity-over-speed transcription of the selection
// procedure used to differential-test the optimised Best (which filters a
// single copy in place).
func referenceBest(cands []bgp.Route, opts Options) (bgp.Route, bool) {
	if len(cands) == 0 {
		return bgp.Route{}, false
	}
	cur := append([]bgp.Route(nil), cands...)
	keepWhere := func(pred func(bgp.Route) bool) {
		var next []bgp.Route
		for _, r := range cur {
			if pred(r) {
				next = append(next, r)
			}
		}
		cur = next
	}
	maxLP := cur[0].Path.LocalPref
	for _, r := range cur {
		if r.Path.LocalPref > maxLP {
			maxLP = r.Path.LocalPref
		}
	}
	keepWhere(func(r bgp.Route) bool { return r.Path.LocalPref == maxLP })
	minLen := cur[0].Path.ASPathLen
	for _, r := range cur {
		if r.Path.ASPathLen < minLen {
			minLen = r.Path.ASPathLen
		}
	}
	keepWhere(func(r bgp.Route) bool { return r.Path.ASPathLen == minLen })
	if opts.MED == AlwaysCompare {
		minMED := cur[0].Path.MED
		for _, r := range cur {
			if r.Path.MED < minMED {
				minMED = r.Path.MED
			}
		}
		keepWhere(func(r bgp.Route) bool { return r.Path.MED == minMED })
	} else {
		minByAS := map[bgp.ASN]int{}
		for _, r := range cur {
			if m, ok := minByAS[r.Path.NextAS]; !ok || r.Path.MED < m {
				minByAS[r.Path.NextAS] = r.Path.MED
			}
		}
		keepWhere(func(r bgp.Route) bool { return r.Path.MED == minByAS[r.Path.NextAS] })
	}
	ebgp := func() {
		any := false
		for _, r := range cur {
			if r.EBGP() {
				any = true
			}
		}
		if any {
			keepWhere(func(r bgp.Route) bool { return r.EBGP() })
		}
	}
	metric := func() {
		min := cur[0].Metric
		for _, r := range cur {
			if r.Metric < min {
				min = r.Metric
			}
		}
		keepWhere(func(r bgp.Route) bool { return r.Metric == min })
	}
	if opts.Order == RFCOrder {
		metric()
		ebgp()
	} else {
		ebgp()
		metric()
	}
	win := cur[0]
	for _, r := range cur[1:] {
		if r.LearnedFrom < win.LearnedFrom ||
			(r.LearnedFrom == win.LearnedFrom && r.Path.ID < win.Path.ID) {
			win = r
		}
	}
	return win, true
}

// TestQuickBestMatchesReference differential-tests the in-place Best
// against the naive transcription on random inputs of up to 64 routes,
// and on every size from 17 to 64 with a fixed seed, so inputs on both
// sides of 16 routes (where a MED filter could switch strategy) are
// always covered.
func TestQuickBestMatchesReference(t *testing.T) {
	agree := func(rs []bgp.Route) bool {
		for _, opts := range []Options{{}, {Order: RFCOrder}, {MED: AlwaysCompare}, {Order: RFCOrder, MED: AlwaysCompare}} {
			got, ok1 := best(rs, opts)
			want, ok2 := referenceBest(rs, opts)
			if ok1 != ok2 || got.Path.ID != want.Path.ID {
				return false
			}
		}
		return true
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return agree(randomRoutes(rng, 1+rng.Intn(64)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for n := 17; n <= 64; n++ {
		for i := 0; i < 20; i++ {
			if rs := randomRoutes(rng, n); !agree(rs) {
				t.Fatalf("%d routes: Best disagrees with the reference on %v", n, rs)
			}
		}
	}
}

// TestBestDoesNotMutateInput: the entry points that are not *InPlace —
// Survivors12, SurvivorsInto and WaltonInto — leave their input untouched.
func TestBestDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rs := randomRoutes(rng, 12)
	paths := make([]bgp.ExitPath, len(rs))
	var all bgp.PathSet
	for i, r := range rs {
		paths[i] = r.Path
		all.Add(r.Path.ID)
	}
	origPaths, origAll := slices.Clone(paths), all.Clone()
	Survivors12(paths)
	for _, opts := range []Options{{}, {Order: RFCOrder, MED: AlwaysCompare}} {
		d := NewDominance(paths, opts.MED)
		var out, in, surv bgp.PathSet
		d.SurvivorsInto(&out, all)
		d.WaltonInto(&out, &in, &surv, all, opts.Order, func(s bgp.PathSet) []bgp.Route {
			var sel []bgp.Route
			s.ForEach(func(id bgp.PathID) { sel = append(sel, rs[id]) })
			return sel
		})
	}
	if !slices.Equal(paths, origPaths) || !all.Equal(origAll) {
		t.Fatal("a copying entry point mutated its input")
	}
}

// TestMEDSelectionNotRankable machine-checks the Section 4 remark that
// SPVP-style models (a fixed per-router preference order) cannot express
// MED: the choice function violates independence of irrelevant
// alternatives. At Figure 1(a)'s reflector A, the winner among {r1, r2}
// is r2, yet adding r3 makes r1 win — even though r3 itself loses. No
// fixed ranking of {r1, r2, r3} can produce both choices.
func TestMEDSelectionNotRankable(t *testing.T) {
	// Routes as seen from A in Figure 1(a): metrics 5, 4, 11; r2 and r3
	// share AS 1 with MEDs 1 and 0.
	r1 := mk(0, 100, 1, 2, 0, 5, false, 1)
	r2 := mk(1, 100, 1, 1, 1, 4, false, 2)
	r3 := mk(2, 100, 1, 1, 0, 11, false, 3)

	small, _ := best([]bgp.Route{r1, r2}, Options{})
	if small.Path.ID != r2.Path.ID {
		t.Fatalf("best({r1,r2}) = p%d, want r2", small.Path.ID)
	}
	big, _ := best([]bgp.Route{r1, r2, r3}, Options{})
	if big.Path.ID != r1.Path.ID {
		t.Fatalf("best({r1,r2,r3}) = p%d, want r1", big.Path.ID)
	}
	// IIA violation: best(S2) = r1 lies in S1 = {r1, r2} ⊂ S2, yet
	// best(S1) = r2 ≠ r1. A fixed ranking would force best(S1) = r1.
	if big.Path.ID == small.Path.ID {
		t.Fatal("expected an IIA violation; MED selection looked rankable")
	}
	// And indeed no strict order over three routes is consistent with
	// both observed choices plus best({r2, r3}) — verify by brute force
	// over all 6 permutations.
	pair23, _ := best([]bgp.Route{r2, r3}, Options{})
	choices := []struct {
		set  []bgp.Route
		best bgp.PathID
	}{
		{[]bgp.Route{r1, r2}, small.Path.ID},
		{[]bgp.Route{r2, r3}, pair23.Path.ID},
		{[]bgp.Route{r1, r2, r3}, big.Path.ID},
	}
	perms := [][3]bgp.PathID{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	for _, perm := range perms {
		rank := map[bgp.PathID]int{}
		for pos, id := range perm {
			rank[id] = pos
		}
		consistent := true
		for _, c := range choices {
			top := c.set[0].Path.ID
			for _, r := range c.set[1:] {
				if rank[r.Path.ID] < rank[top] {
					top = r.Path.ID
				}
			}
			if top != c.best {
				consistent = false
				break
			}
		}
		if consistent {
			t.Fatalf("ranking %v reproduces all MED choices; the §4 remark would be false", perm)
		}
	}
}

func TestStringers(t *testing.T) {
	if PaperOrder.String() != "paper" || RFCOrder.String() != "rfc" {
		t.Fatal("Order.String wrong")
	}
	if PerNeighborAS.String() != "per-neighbor-as" || AlwaysCompare.String() != "always-compare-med" {
		t.Fatal("MEDMode.String wrong")
	}
}
