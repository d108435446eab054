package experiments

import (
	"reflect"
	"strings"
	"testing"

	"daesim/internal/isa"
	"daesim/internal/machine"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

func TestCodeExpansion(t *testing.T) {
	res, err := ctx().CodeExpansion()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("want 7 rows, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		dmExp := float64(r.DMOps) / float64(r.TraceLen)
		swExp := float64(r.SWSMOps) / float64(r.TraceLen)
		// Memory ops double; the rest stay, so expansion lies in (1, 2).
		if dmExp <= 1.0 || dmExp >= 2.0 {
			t.Errorf("%s: DM expansion %.2f implausible", r.Name, dmExp)
		}
		if swExp <= 1.0 || swExp >= 2.0 {
			t.Errorf("%s: SWSM expansion %.2f implausible", r.Name, swExp)
		}
		// The DM expands by at least the SWSM's amount plus copies.
		if r.DMOps < r.SWSMOps {
			// Only possible via dual-delivery loads vs store prefetches;
			// copies must make up the difference for TRACK.
			if r.Name != "TRACK" {
				t.Errorf("%s: DM ops %d below SWSM ops %d", r.Name, r.DMOps, r.SWSMOps)
			}
		}
		if r.Name == "TRACK" && r.Copies == 0 {
			t.Error("TRACK must pay copies")
		}
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "C4") || !strings.Contains(b.String(), "TRACK") {
		t.Fatal("render incomplete")
	}
}

func TestPolicyStudy(t *testing.T) {
	res, err := ctx().PolicyStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 21 { // 7 workloads x 3 policies
		t.Fatalf("want 21 rows, got %d", len(res.Rows))
	}
	// Policies must agree within 15% at MD=60 on these FP codes (the
	// address slice dominates the partition).
	byName := map[string][]PolicyRow{}
	for _, r := range res.Rows {
		byName[r.Name] = append(byName[r.Name], r)
		if r.Cycles0 <= 0 || r.Cycles60 < r.Cycles0 {
			t.Errorf("%s/%s: implausible cycles %d/%d", r.Name, r.Policy, r.Cycles0, r.Cycles60)
		}
	}
	for name, rows := range byName { //daelint:nondeterministic-ok order-free per-workload assertions; failures print their own name
		lo, hi := rows[0].Cycles60, rows[0].Cycles60
		for _, r := range rows {
			if r.Cycles60 < lo {
				lo = r.Cycles60
			}
			if r.Cycles60 > hi {
				hi = r.Cycles60
			}
		}
		if float64(hi) > 1.15*float64(lo) {
			t.Errorf("%s: policies diverge %d..%d at MD=60", name, lo, hi)
		}
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "slice-only") {
		t.Fatal("render incomplete")
	}
}

// TestPolicyStudyReusesContextRunners pins the study's cost on a context
// whose classic runners are already warm: rows under the context's policy
// run on those runners (the MD=60 points CodeExpansion simulated are L1
// hits), and only the 14 repartitioned suites get detached runners. The
// rows must match suites lowered from scratch under each policy.
func TestPolicyStudyReusesContextRunners(t *testing.T) {
	c := NewContext()
	if _, err := c.CodeExpansion(); err != nil {
		t.Fatal(err)
	}
	before := c.CacheStats()
	res, err := c.PolicyStudy()
	if err != nil {
		t.Fatal(err)
	}
	after := c.CacheStats()
	if sims, l1 := after.Sims-before.Sims, after.L1Hits-before.L1Hits; sims != 35 || l1 != 7 {
		t.Errorf("the study cost %d simulations and %d L1 hits, want 35 and 7", sims, l1)
	}

	// CacheStats is the context runners' traffic plus the detached
	// runners', each counted once: the classic rows' two points per
	// workload land on the context runner only.
	var runners sweep.CacheStats
	for _, spec := range workloads.Catalog() {
		r, err := c.Runner(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		runners.Add(r.Stats())
	}
	if want := (sweep.CacheStats{Sims: 28}); c.extraStats != want {
		t.Errorf("detached runners' stats %+v, want %+v", c.extraStats, want)
	}
	total := runners
	total.Add(c.extraStats)
	if after != total {
		t.Errorf("CacheStats %+v, want the runners' sum %+v", after, total)
	}

	var want []PolicyRow
	for _, spec := range workloads.Catalog() {
		tr, err := workloads.Build(spec.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range partition.Policies() {
			s, err := machine.NewSuite(tr, pol)
			if err != nil {
				t.Fatal(err)
			}
			r0, err := s.RunDM(machine.Params{Window: ablationWindow, MD: MDZero})
			if err != nil {
				t.Fatal(err)
			}
			r60, err := s.RunDM(machine.Params{Window: ablationWindow, MD: ablationMD})
			if err != nil {
				t.Fatal(err)
			}
			dm, err := s.Program(machine.DM)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, PolicyRow{
				Name: spec.Name, Policy: pol,
				AUOps: s.Assignment().OpsAU, DUOps: s.Assignment().OpsDU,
				Copies:  dm.KindCounts()[isa.OpCopy],
				Cycles0: r0.Cycles, Cycles60: r60.Cycles,
			})
		}
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("policy rows differ from per-policy NewSuite suites:\n got %+v\nwant %+v", res.Rows, want)
	}
}

func TestRetireStudy(t *testing.T) {
	res, err := ctx().RetireStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 { // 3 workloads x 2 machines x 3 windows
		t.Fatalf("want 18 rows, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.InOrder < r.Complete {
			t.Errorf("%s/%s w=%d: in-order retire faster (%d < %d)",
				r.Name, r.Kind, r.Window, r.InOrder, r.Complete)
		}
	}
	// In-order retirement must hurt the SWSM more than the DM at the
	// standard window (the single window holds everything).
	penalty := func(kind machine.Kind, name string) float64 {
		for _, r := range res.Rows {
			if r.Kind == kind && r.Name == name && r.Window == 64 {
				return float64(r.InOrder) / float64(r.Complete)
			}
		}
		t.Fatalf("missing row %v %s", kind, name)
		return 0
	}
	for _, name := range []string{"FLO52Q", "MDG"} {
		if penalty(machine.SWSM, name) <= penalty(machine.DM, name) {
			t.Errorf("%s: SWSM should pay more for in-order retirement", name)
		}
	}
	// Under in-order retirement the DM wins at 1000 slots for the
	// showcase program, recovering the paper's C2 claim.
	var dm1000, sw1000 int64
	for _, r := range res.Rows {
		if r.Name == "FLO52Q" && r.Window == 1000 {
			if r.Kind == machine.DM {
				dm1000 = r.InOrder
			} else {
				sw1000 = r.InOrder
			}
		}
	}
	if dm1000 >= sw1000 {
		t.Errorf("FLO52Q w=1000 in-order: DM %d should beat SWSM %d", dm1000, sw1000)
	}
}

func TestCacheStudy(t *testing.T) {
	res, err := ctx().CacheStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(res.Rows))
	}
	byName := map[string]map[machine.Kind]CacheRow{}
	for _, r := range res.Rows {
		if byName[r.Name] == nil {
			byName[r.Name] = map[machine.Kind]CacheRow{}
		}
		byName[r.Name][r.Kind] = r
		// Caches capture locality, so the hierarchy never slows things
		// down on these workloads.
		if r.Cached > r.Fixed {
			t.Errorf("%s/%s: hierarchy slower than fixed differential (%d > %d)",
				r.Name, r.Kind, r.Cached, r.Fixed)
		}
		if r.MissRate <= 0 || r.MissRate >= 1 {
			t.Errorf("%s/%s: miss rate %.2f degenerate", r.Name, r.Kind, r.MissRate)
		}
	}
	// The DM stays ahead of the SWSM under the hierarchy too.
	for name, rows := range byName { //daelint:nondeterministic-ok order-free per-workload assertions; failures print their own name
		if rows[machine.DM].Cached >= rows[machine.SWSM].Cached {
			t.Errorf("%s: DM (%d) should beat SWSM (%d) under the hierarchy",
				name, rows[machine.DM].Cached, rows[machine.SWSM].Cached)
		}
	}
}
