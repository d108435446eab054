package workloads

import (
	"testing"

	"daesim/internal/isa"
	"daesim/internal/partition"
)

func TestCatalogShape(t *testing.T) {
	specs := Catalog()
	if len(specs) != 7 {
		t.Fatalf("want 7 workloads, got %d", len(specs))
	}
	want := []string{"TRFD", "ADM", "FLO52Q", "DYFESM", "QCD", "MDG", "TRACK"}
	for i, s := range specs {
		if s.Name != want[i] {
			t.Errorf("catalog order: got %s at %d, want %s", s.Name, i, want[i])
		}
		if s.Description == "" || s.Build == nil {
			t.Errorf("%s: incomplete spec", s.Name)
		}
	}
	// Band distribution per the paper: 3 highly, 3 moderately, 1 poorly.
	counts := map[Band]int{}
	for _, s := range specs {
		counts[s.Band]++
	}
	if counts[Highly] != 3 || counts[Moderately] != 3 || counts[Poorly] != 1 {
		t.Fatalf("band distribution wrong: %v", counts)
	}
}

func TestLookupAndBuild(t *testing.T) {
	if _, err := Lookup("QCD"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	tr, err := Build("TRFD", 0) // scale clamps to 1
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
}

func TestFigureNamesAreInCatalog(t *testing.T) {
	for _, n := range FigureNames() {
		if _, err := Lookup(n); err != nil {
			t.Errorf("figure workload %s missing: %v", n, err)
		}
	}
}

func TestAllTracesValidate(t *testing.T) {
	for _, spec := range Catalog() {
		tr := spec.Build(1)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if tr.Name != spec.Name {
			t.Errorf("trace name %q != spec name %q", tr.Name, spec.Name)
		}
		st := tr.Stats()
		if st.Total < 10_000 {
			t.Errorf("%s: trace too small (%d)", spec.Name, st.Total)
		}
		if st.MemFrac < 0.15 || st.MemFrac > 0.60 {
			t.Errorf("%s: memory fraction %.2f implausible", spec.Name, st.MemFrac)
		}
		if st.ByClass[isa.FPALU] == 0 {
			t.Errorf("%s: no FP work", spec.Name)
		}
	}
}

func TestScaleGrowsLinearly(t *testing.T) {
	for _, spec := range Catalog() {
		n1 := spec.Build(1).Len()
		n2 := spec.Build(2).Len()
		ratio := float64(n2) / float64(n1)
		if ratio < 1.8 || ratio > 2.2 {
			t.Errorf("%s: scale 2 gives %.2fx instructions, want ~2x", spec.Name, ratio)
		}
	}
}

func TestBuildsAreDeterministic(t *testing.T) {
	for _, spec := range Catalog() {
		a, b := spec.Build(1), spec.Build(1)
		if a.Len() != b.Len() {
			t.Errorf("%s: nondeterministic length", spec.Name)
			continue
		}
		for i := range a.Instrs {
			if a.Instrs[i].Class != b.Instrs[i].Class || a.Instrs[i].MemAddr != b.Instrs[i].MemAddr {
				t.Errorf("%s: instruction %d differs between builds", spec.Name, i)
				break
			}
		}
	}
}

func TestStructuralSignatures(t *testing.T) {
	// Each workload's partition must exhibit the structural feature its
	// documentation claims.
	get := func(name string) *partition.Assignment {
		tr, err := Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := partition.Partition(tr, partition.Classic)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if get("TRFD").SelfLoads != 0 {
		t.Error("TRFD should have no self-loads (pure affine streams)")
	}
	if get("ADM").SelfLoads != 0 {
		t.Error("ADM should have no self-loads")
	}
	for _, name := range []string{"DYFESM", "QCD", "MDG"} {
		if get(name).SelfLoads == 0 {
			t.Errorf("%s should gather through self-loads", name)
		}
	}
	// TRACK's loss of decoupling shows up as DU->AU values, which the
	// partitioner marks by keeping FP producers on the DU while their
	// integer consumers sit on the AU; the lowering then inserts copies.
	trackTrace, err := Build("TRACK", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := get("TRACK")
	lod := 0
	for i := range trackTrace.Instrs {
		in := &trackTrace.Instrs[i]
		if in.Class != isa.IntALU || a.Unit[i] != isa.AU {
			continue
		}
		for _, p := range in.Args {
			if trackTrace.Instrs[p].Class == isa.FPALU {
				lod++
			}
		}
	}
	if lod == 0 {
		t.Error("TRACK should have FP-dependent address computation (loss of decoupling)")
	}
}

// BenchmarkWorkloadBuild builds every catalog workload at scale 1: the
// trace construction a warm repro pass pays before it reads the store.
func BenchmarkWorkloadBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range Catalog() {
			s.Build(1)
		}
	}
}
