package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestDeterminismFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "det")
	runFixture(t, w, []*Analyzer{NewDeterminism(DeterminismConfig{Paths: []string{"det"}})})
}

func TestHotpathFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "hot")
	runFixture(t, w, []*Analyzer{NewHotpath()})
}

// fixtureSchemaConfig mirrors DefaultSchemaConfig over the fixture tree.
var fixtureSchemaConfig = SchemaConfig{
	ParamsPkg: "schema/machine", ParamsType: "Params", CacheKeyFunc: "CacheKey",
	WirePkg: "schema/machine", WireType: "Params",
	ResultPkg:    "schema/result",
	ResultTypes:  []string{"Result", "CoreStats"},
	CloneFunc:    "Clone",
	OracleFunc:   "resultsEqual",
	SourceKeyPkg: "schema/machine", SourceKeyFunc: "Fingerprint",
	SourceStructs: [][2]string{{"schema/trace", "Trace"}, {"schema/machine", "Assignment"}},
}

func TestSchemaGuardFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "schema/machine", "schema/result")
	runFixture(t, w, []*Analyzer{NewSchemaGuard(fixtureSchemaConfig)})
}

// TestSchemaGuardMissingDeclarations: a config naming a declaration
// that is gone from a loaded package is a finding, never a silent pass,
// for every schemaguard check.
func TestSchemaGuardMissingDeclarations(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "schema/machine", "schema/result")
	for _, tc := range []struct {
		name string
		cfg  SchemaConfig
		want string
	}{
		{"cache-key params", SchemaConfig{ParamsPkg: "schema/machine", ParamsType: "Gone", CacheKeyFunc: "CacheKey"},
			"schema config names schema/machine.Gone, which does not exist"},
		{"cache-key encoder", SchemaConfig{ParamsPkg: "schema/machine", ParamsType: "Params", CacheKeyFunc: "Gone"},
			"schema config names encoder Gone on schema/machine.Params, which does not exist"},
		{"wire names", SchemaConfig{WirePkg: "schema/machine", WireType: "Gone"},
			"schema config names schema/machine.Gone, which does not exist"},
		{"clone func", SchemaConfig{ResultPkg: "schema/result", ResultTypes: []string{"Result"}, CloneFunc: "Gone"},
			"schema config names Gone on schema/result.Result, which does not exist"},
		{"clone type", SchemaConfig{ResultPkg: "schema/result", ResultTypes: []string{"Result", "Gone"}, CloneFunc: "Clone"},
			"schema config names schema/result.Gone, which does not exist"},
		{"oracle", SchemaConfig{ResultPkg: "schema/result", OracleFunc: "gone"},
			"oracle comparison result.gone not found"},
		{"source-key func", SchemaConfig{SourceKeyPkg: "schema/machine", SourceKeyFunc: "Gone", SourceStructs: [][2]string{{"schema/trace", "Trace"}}},
			"schema config names Gone in schema/machine, which does not exist"},
		{"source-key struct", SchemaConfig{SourceKeyPkg: "schema/machine", SourceKeyFunc: "Fingerprint", SourceStructs: [][2]string{{"schema/trace", "Gone"}}},
			"schema config names schema/trace.Gone, which does not exist"},
	} {
		var got []string
		for _, d := range RunAnalyzers(w, []*Analyzer{NewSchemaGuard(tc.cfg)}) {
			got = append(got, d.Message)
		}
		if !slices.ContainsFunc(got, func(m string) bool { return strings.HasPrefix(m, tc.want) }) {
			t.Errorf("%s: findings %q lack %q", tc.name, got, tc.want)
		}
	}
}

func TestLockguardFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "lock")
	runFixture(t, w, []*Analyzer{NewLockguard(LockguardConfig{Paths: []string{"lock"}})})
}

func TestCtxflowFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "ctxf")
	runFixture(t, w, []*Analyzer{NewCtxflow(CtxflowConfig{Paths: []string{"ctxf"}})})
}

func TestErrclassFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "errc")
	runFixture(t, w, []*Analyzer{NewErrclass(ErrclassConfig{
		Paths:    []string{"errc"},
		Boundary: [][2]string{{"errc", "Client"}},
	})})
}

// TestDirectiveEdgeCases pins the directive-grammar corners: a duplicate
// //daelint:guardedby, a guardedby naming a mutex that does not exist,
// and a reasonless suppression — which is malformed AND leaves the
// underlying finding unsuppressed.
func TestDirectiveEdgeCases(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "dirs")
	diags := RunAnalyzers(w, []*Analyzer{NewLockguard(LockguardConfig{Paths: []string{"dirs"}})})
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	wantSubstrs := []string{
		"lockguard: duplicate //daelint:guardedby on field dup",
		"lockguard: //daelint:guardedby missing on field bad: missing names no sibling sync.Mutex/RWMutex field of T",
		"directive: //daelint:lockguard-ok needs a reason",
		"lockguard: read of T.n outside mu.Lock/Unlock span",
	}
	if len(got) != len(wantSubstrs) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(wantSubstrs), strings.Join(got, "\n"))
	}
	for _, want := range wantSubstrs {
		found := false
		for _, g := range got {
			if strings.Contains(g, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q; got:\n%s", want, strings.Join(got, "\n"))
		}
	}
}

func TestMalformedDirectives(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "badly")
	mal := w.Pkg("badly").Directives.Malformed
	if len(mal) != 2 {
		t.Fatalf("got %d malformed directives, want 2: %v", len(mal), mal)
	}
	if !strings.Contains(mal[0].Message, "unknown directive //daelint:nondeterministc-ok") {
		t.Errorf("first malformed = %q, want unknown-directive complaint", mal[0].Message)
	}
	if !strings.Contains(mal[1].Message, "//daelint:hotpath-ok needs a reason") {
		t.Errorf("second malformed = %q, want missing-reason complaint", mal[1].Message)
	}
	// Malformed directives surface as findings of the "directive" analyzer.
	diags := RunAnalyzers(w, nil)
	if len(diags) != 2 {
		t.Fatalf("RunAnalyzers returned %d findings, want the 2 malformed directives: %v", len(diags), diags)
	}
}

// fixtureVersionKeyConfig mirrors DefaultVersionKeyConfig over the
// fixture tree rooted at a (possibly temp-copied) directory.
var fixtureVersionKeyConfig = VersionKeyConfig{
	VersionPkg:        "version/engine",
	VersionConst:      "Version",
	VersionPattern:    `^engine-v\d+$`,
	Roots:             []string{"(Sim).Run"},
	Structs:           [][2]string{{"version/engine", "Config"}},
	ConstPkgs:         []string{"version/engine"},
	LockFile:          "semantics.lock",
	RequireVersionUse: []string{"version/store"},
}

func TestVersionKeyLifecycle(t *testing.T) {
	tmp := t.TempDir()
	copyFixtureTree(t, filepath.Join("testdata", "src", "version"), filepath.Join(tmp, "version"))
	cfg := fixtureVersionKeyConfig

	run := func() []Diagnostic {
		w := loadFixture(t, tmp, "version/engine", "version/store")
		return RunAnalyzers(w, []*Analyzer{NewVersionKey(cfg)})
	}
	wantOne := func(stage, substr string) {
		t.Helper()
		diags := run()
		if len(diags) != 1 || !strings.Contains(diags[0].Message, substr) {
			t.Fatalf("%s: got %v, want one finding containing %q", stage, diags, substr)
		}
	}
	wantClean := func(stage string) {
		t.Helper()
		if diags := run(); len(diags) != 0 {
			t.Fatalf("%s: got %v, want no findings", stage, diags)
		}
	}
	edit := func(old, new string) {
		t.Helper()
		path := filepath.Join(tmp, "version", "engine", "engine.go")
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), old) {
			t.Fatalf("edit: %q not found in fixture", old)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), old, new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeLock := func() {
		t.Helper()
		w := loadFixture(t, tmp, "version/engine", "version/store")
		if _, err := WriteSemanticsLock(w, cfg); err != nil {
			t.Fatal(err)
		}
	}

	// No lock yet: the analyzer demands one.
	wantOne("missing lock", "semantics lock semantics.lock missing")

	// Generating the lock pins the surface.
	writeLock()
	wantClean("fresh lock")

	// A package that must fold the version into its keys but doesn't.
	cfg.RequireVersionUse = []string{"version/engine"}
	wantOne("version use", "package version/engine never references engine.Version")
	cfg.RequireVersionUse = fixtureVersionKeyConfig.RequireVersionUse

	// A version string off the canonical shape.
	cfg.VersionPattern = `^sim-v\d+$`
	wantOne("version pattern", "does not match")
	cfg.VersionPattern = fixtureVersionKeyConfig.VersionPattern

	// Editing a reachable function's body trips the ratchet even though
	// its signature is unchanged.
	edit("return w + 1", "return w + 2")
	wantOne("body edit", `func version/engine.(Sim).step (changed)`)
	writeLock()

	// A function reached only as a value, not called, is surface too.
	edit("return t * 1", "return t * 2")
	wantOne("method value edit", `func version/engine.(Sim).finish (changed)`)

	// Regenerating the lock (the reviewable way to accept the change)
	// settles it again.
	writeLock()
	wantClean("regenerated lock")

	// Bumping the version without regenerating the lock is also a finding.
	edit(`Version = "engine-v1"`, `Version = "engine-v2"`)
	wantOne("version bump", `records "engine-v1"`)
}

// fixtureLowerVersionKeyConfig mirrors LowerVersionKeyConfig: a second
// version discipline whose roots reach into another package's
// constructor, over the same fixture tree.
var fixtureLowerVersionKeyConfig = VersionKeyConfig{
	VersionPkg:        "version/lower",
	VersionConst:      "Version",
	VersionPattern:    `^lower-v\d+$`,
	Roots:             []string{"Lower", "version/engine.NewProgram"},
	Structs:           [][2]string{{"version/engine", "Op"}},
	ConstPkgs:         []string{"version/lower"},
	LockFile:          "lower.lock",
	RequireVersionUse: []string{"version/store"},
}

// TestLowerVersionKeyGate: editing a lowering-surface declaration — in
// the lowering package itself or in the cross-package constructor it
// roots — without bumping lower.Version fails the gate, and the two
// locks ratchet independently.
func TestLowerVersionKeyGate(t *testing.T) {
	tmp := t.TempDir()
	copyFixtureTree(t, filepath.Join("testdata", "src", "version"), filepath.Join(tmp, "version"))
	cfgs := []VersionKeyConfig{fixtureVersionKeyConfig, fixtureLowerVersionKeyConfig}
	load := func() *World { return loadFixture(t, tmp, "version/engine", "version/lower", "version/store") }
	run := func() []Diagnostic {
		var as []*Analyzer
		for _, cfg := range cfgs {
			as = append(as, NewVersionKey(cfg))
		}
		return RunAnalyzers(load(), as)
	}
	writeLocks := func() {
		t.Helper()
		w := load()
		for _, cfg := range cfgs {
			if _, err := WriteSemanticsLock(w, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantOne := func(stage, substr string) {
		t.Helper()
		diags := run()
		if len(diags) != 1 || !strings.Contains(diags[0].Message, substr) {
			t.Fatalf("%s: got %v, want one finding containing %q", stage, diags, substr)
		}
	}
	edit := func(file, old, new string) {
		t.Helper()
		path := filepath.Join(tmp, "version", file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), old) {
			t.Fatalf("edit: %q not found in %s", old, file)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), old, new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	writeLocks()
	if diags := run(); len(diags) != 0 {
		t.Fatalf("fresh locks: got %v, want no findings", diags)
	}

	// A lowering body edit trips the lowering lock only.
	edit("lower/lower.go", "return engine.NewProgram(ops)", "return engine.NewProgram(append(ops, engine.Op{}))")
	wantOne("lowering edit", "func version/lower.Lower (changed)")
	writeLocks()

	// So does an edit to a function the cross-package root reaches, even
	// though the engine's own lock (rooted at Sim.Run) does not cover it.
	edit("engine/engine.go", "return len(ops) + 1", "return len(ops) + 2")
	wantOne("constructor edit", "func version/engine.width (changed)")

	// Bumping lower.Version is not enough on its own: the lock must be
	// regenerated in the same change.
	edit("lower/lower.go", `Version = "lower-v1"`, `Version = "lower-v2"`)
	wantOne("bump without lock", `records "lower-v1"`)
	writeLocks()
	if diags := run(); len(diags) != 0 {
		t.Fatalf("regenerated locks: got %v, want no findings", diags)
	}
}

// TestRepoIsClean is the self-hosting gate: the seven production
// analyzers (versionkey once per lock) over the whole module must
// report nothing, in both the plain and the -tests configuration.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	w, err := Load("../..", []string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*Analyzer{
		NewDeterminism(DeterminismConfig{Paths: DefaultDeterminismPaths}),
		NewSchemaGuard(DefaultSchemaConfig),
		NewHotpath(),
		NewLockguard(LockguardConfig{Paths: DefaultConcurrencyPaths}),
		NewCtxflow(CtxflowConfig{Paths: DefaultConcurrencyPaths}),
		NewErrclass(DefaultErrclassConfig),
	}
	for _, cfg := range VersionKeyConfigs {
		analyzers = append(analyzers, NewVersionKey(cfg))
	}
	for _, includeTests := range []bool{false, true} {
		w.IncludeTests = includeTests
		for _, d := range RunAnalyzers(w, analyzers) {
			t.Errorf("IncludeTests=%v: %s", includeTests, d)
		}
	}
}

// TestEngineSurfaceReachesMemoryModels: the engine lock pins more than
// internal/engine. The Params-to-Config translation, every memory model
// the engine can be handed, and the isa helpers they call change stored
// results as surely as the cycle loop does, so the real repo's surface
// must contain each of them.
func TestEngineSurfaceReachesMemoryModels(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the engine and its inputs")
	}
	w, err := Load("../..", []string{"./internal/engine", "./internal/machine", "./internal/memsys", "./internal/isa"}, false)
	if err != nil {
		t.Fatal(err)
	}
	surface, err := ComputeSemanticsSurface(w, DefaultVersionKeyConfig)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, line := range surface {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "func" {
			have[f[1]] = true
		}
	}
	for _, fn := range []string{
		"machine.(Params).Config",
		"machine.(Params).queueModel",
		"memsys.NewOutstanding",
		"memsys.NewBypass",
		"memsys.NewHierarchy",
		"memsys.(Outstanding).RequestFill",
		"memsys.(Outstanding).Reset",
		"memsys.(Bypass).RequestFill",
		"memsys.(Bypass).Reset",
		"memsys.(Bypass).MemHits",
		"memsys.(Hierarchy).RequestFill",
		"memsys.(Hierarchy).Reset",
		"memsys.(Hierarchy).MemHits",
		"isa.(Timing).Latency",
		"isa.LineOf",
	} {
		if !have["daesim/internal/"+fn] {
			t.Errorf("engine semantics surface lacks %s", fn)
		}
	}
}
