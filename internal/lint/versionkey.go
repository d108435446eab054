package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// VersionKeyConfig names a version discipline the versionkey analyzer
// enforces: the declarations whose change can alter a persisted value
// for the same inputs (the "surface" of the roots) are recorded in a
// lock file keyed by a version string, so editing the surface without
// either bumping the version or consciously regenerating the lock (a
// reviewable diff) fails the build gate.
type VersionKeyConfig struct {
	// VersionPkg declares VersionConst; unqualified roots resolve in it.
	VersionPkg   string
	VersionConst string
	// VersionPattern constrains the version string's shape.
	VersionPattern string
	// Roots are function keys: "(Sim).Run" and "Run" name functions of
	// VersionPkg, and a key containing a '/' is qualified by its package
	// path ("daesim/internal/engine.NewProgram"). Every function
	// reachable from a root within the root's own package is surface.
	Roots []string
	// Structs are {package path, type name} pairs whose field lists and
	// types are surface (config knobs reaching the roots).
	Structs [][2]string
	// ConstPkgs are packages whose exported constant values are surface
	// (calibrated latencies, queue factors).
	ConstPkgs []string
	// LockFile is the lock file name, relative to VersionPkg's directory.
	LockFile string
	// RequireVersionUse lists packages that must reference VersionConst
	// in non-test code (cache-entry key builders, skew guards).
	RequireVersionUse []string
}

// DefaultVersionKeyConfig encodes the engine discipline: engine.Version
// tags Sim.Run semantics and the certified lower bound
// (Sim.LowerBound, whose records the store keeps beside results), sweep
// folds it into store keys and daemon into
// skew guards, and internal/engine/semantics.lock pins the surface. The
// surface reaches past the engine to everything that turns a cached
// machine.Params into engine input or answers the engine mid-run: the
// Params-to-Config translation, the memory models and their
// constructors (with the state and shift methods the steady-state skip
// reads and moves the Outstanding queue by), and the isa latency and
// line helpers.
var DefaultVersionKeyConfig = VersionKeyConfig{
	VersionPkg:     "daesim/internal/engine",
	VersionConst:   "Version",
	VersionPattern: `^engine-v\d+$`,
	Roots: []string{
		"(Sim).Run", "Run",
		"(Sim).LowerBound", "(Program).LowerBound",
		"daesim/internal/machine.(Params).Config",
		"daesim/internal/memsys.NewOutstanding",
		"daesim/internal/memsys.NewBypass",
		"daesim/internal/memsys.NewHierarchy",
		"daesim/internal/memsys.(Spec).CacheLevels",
		"daesim/internal/memsys.(Outstanding).RequestFill",
		"daesim/internal/memsys.(Outstanding).Reset",
		"daesim/internal/memsys.(Outstanding).AppendState",
		"daesim/internal/memsys.(Outstanding).Shift",
		"daesim/internal/memsys.(Outstanding).MinFill",
		"daesim/internal/memsys.(Bypass).RequestFill",
		"daesim/internal/memsys.(Bypass).Reset",
		"daesim/internal/memsys.(Bypass).MemHits",
		"daesim/internal/memsys.(Hierarchy).RequestFill",
		"daesim/internal/memsys.(Hierarchy).Reset",
		"daesim/internal/memsys.(Hierarchy).MemHits",
		"daesim/internal/isa.(Timing).Latency",
		"daesim/internal/isa.LineOf",
	},
	Structs: [][2]string{
		{"daesim/internal/engine", "Config"},
		{"daesim/internal/engine", "Op"},
		{"daesim/internal/machine", "Params"},
	},
	ConstPkgs: []string{
		"daesim/internal/engine",
		"daesim/internal/machine",
		"daesim/internal/isa",
	},
	LockFile:          "semantics.lock",
	RequireVersionUse: []string{"daesim/internal/sweep", "daesim/internal/daemon"},
}

// LowerVersionKeyConfig encodes the lowering discipline: store keys name
// the inputs of lowering (machine.Suite.Fingerprint) instead of hashing
// its output, so lower.Version tags what DM and SWSM emit for a trace
// and assignment, machine folds it into the key, and
// internal/lower/lower.lock pins the surface — the lowerings, the
// program builder they write each op into and the op layout they fill.
var LowerVersionKeyConfig = VersionKeyConfig{
	VersionPkg:     "daesim/internal/lower",
	VersionConst:   "Version",
	VersionPattern: `^lower-v\d+$`,
	Roots: []string{
		"DM", "SWSM",
		"daesim/internal/engine.NewProgramBuilder",
		"daesim/internal/engine.(ProgramBuilder).Add",
		"daesim/internal/engine.(ProgramBuilder).Program",
	},
	Structs:           [][2]string{{"daesim/internal/engine", "Op"}},
	ConstPkgs:         []string{"daesim/internal/lower"},
	LockFile:          "lower.lock",
	RequireVersionUse: []string{"daesim/internal/machine"},
}

// VersionKeyConfigs lists every version discipline of this repo, in the
// order daelint checks and regenerates their locks.
var VersionKeyConfigs = []VersionKeyConfig{DefaultVersionKeyConfig, LowerVersionKeyConfig}

// NewVersionKey builds the versionkey analyzer.
func NewVersionKey(cfg VersionKeyConfig) *Analyzer {
	return &Analyzer{
		Name: "versionkey",
		Doc:  "pins a version string to the surface of its roots via a lock file (engine.Version, lower.Version)",
		Run: func(w *World, report func(pos token.Pos, format string, args ...any)) {
			checkVersionKey(w, cfg, report)
		},
	}
}

func checkVersionKey(w *World, cfg VersionKeyConfig, report func(pos token.Pos, format string, args ...any)) {
	pkg := w.Pkg(cfg.VersionPkg)
	if pkg == nil {
		return
	}
	name := pkgBase(cfg.VersionPkg) + "." + cfg.VersionConst
	version, vpos, ok := versionValue(pkg, cfg.VersionConst)
	if !ok {
		report(token.NoPos, "%s not found: %s must declare its version for persistent caches", name, cfg.VersionPkg)
		return
	}
	if cfg.VersionPattern != "" {
		if re, err := regexp.Compile(cfg.VersionPattern); err == nil && !re.MatchString(version) {
			report(vpos, "%s = %q does not match %s: cache keys embed this string, keep it canonical", name, version, cfg.VersionPattern)
		}
	}

	// Cache-identity plumbing: the packages that build persistent keys
	// must fold the version in, or a semantics bump would not invalidate
	// their entries.
	for _, path := range cfg.RequireVersionUse {
		p := w.Pkg(path)
		if p == nil {
			continue
		}
		if !usesObject(p, cfg.VersionPkg, cfg.VersionConst) {
			report(token.NoPos, "package %s never references %s: its persistent keys or skew guards would survive a version bump", path, name)
		}
	}

	surface, err := ComputeSemanticsSurface(w, cfg)
	if err != nil {
		report(token.NoPos, "versionkey: %v", err)
		return
	}
	lockPath := filepath.Join(pkg.Dir, cfg.LockFile)
	lock, err := os.ReadFile(lockPath)
	if err != nil {
		report(vpos, "semantics lock %s missing: run `go run ./cmd/daelint -update-semantics ./...` to pin the surface reachable from %s", cfg.LockFile, strings.Join(cfg.Roots, ", "))
		return
	}
	lockVersion, lockLines := parseLock(string(lock))
	if lockVersion != version {
		report(vpos, "%s is %q but %s records %q: regenerate the lock with `go run ./cmd/daelint -update-semantics ./...` so the bump and its surface land in one reviewable diff", name, version, cfg.LockFile, lockVersion)
		return
	}
	added, removed := diffLines(lockLines, surface)
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	var parts []string
	if len(added) > 0 {
		parts = append(parts, "added: "+strings.Join(added, ", "))
	}
	if len(removed) > 0 {
		parts = append(parts, "removed: "+strings.Join(removed, ", "))
	}
	report(vpos, "declarations reachable from %s changed (%s) while %s stayed %q: if persisted values can change, bump the version; either way regenerate with `go run ./cmd/daelint -update-semantics ./...` (the reference-oracle tests and the lowering guard gate value-preserving refactors)", strings.Join(cfg.Roots, "/"), strings.Join(parts, "; "), name, version)
}

// ComputeSemanticsSurface renders the current surface as sorted lock
// lines (without the version header).
func ComputeSemanticsSurface(w *World, cfg VersionKeyConfig) ([]string, error) {
	if w.Pkg(cfg.VersionPkg) == nil {
		return nil, fmt.Errorf("package %s not loaded", cfg.VersionPkg)
	}
	qual := func(p *types.Package) string { return p.Path() }
	var lines []string

	// Reachable functions from the roots, closed over each root's own
	// package.
	visited := map[string]bool{}
	var visit func(pkg *Package, decls map[string]*ast.FuncDecl, key string)
	visit = func(pkg *Package, decls map[string]*ast.FuncDecl, key string) {
		if visited[key] {
			return
		}
		visited[key] = true
		fd := decls[key]
		if fd == nil {
			return
		}
		if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			// The body hash is over the printed AST: editing code trips the
			// ratchet, editing comments or formatting does not.
			lines = append(lines, fmt.Sprintf("func %s %s body:%s", key, types.TypeString(obj.Type(), qual), bodyHash(w.Fset, fd)))
		}
		if fd.Body == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			// Every use of a same-package function is an edge: a call,
			// and equally a function or method value (handed to
			// sync.Once.Do, stored as a callback), which runs later.
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == pkg.Path {
					visit(pkg, decls, funcKey(fn))
				}
			}
			return true
		})
	}
	for _, root := range cfg.Roots {
		path, fn := cfg.VersionPkg, root
		if slash := strings.LastIndex(root, "/"); slash >= 0 {
			dot := strings.Index(root[slash:], ".")
			if dot < 0 {
				return nil, fmt.Errorf("root %s names no function", root)
			}
			path, fn = root[:slash+dot], root[slash+dot+1:]
		}
		pkg := w.Pkg(path)
		if pkg == nil {
			return nil, fmt.Errorf("root package %s not loaded", path)
		}
		decls := funcDecls(pkg)
		key := pkg.Path + "." + fn
		if decls[key] == nil {
			return nil, fmt.Errorf("root %s not found in %s", fn, path)
		}
		visit(pkg, decls, key)
	}

	// Struct field surfaces.
	for _, s := range cfg.Structs {
		sp := w.Pkg(s[0])
		if sp == nil {
			return nil, fmt.Errorf("surface package %s not loaded", s[0])
		}
		_, st := namedStruct(sp, s[1])
		if st == nil {
			return nil, fmt.Errorf("surface struct %s.%s not found", s[0], s[1])
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			lines = append(lines, fmt.Sprintf("field %s.%s.%s %s", s[0], s[1], f.Name(), types.TypeString(f.Type(), qual)))
		}
	}

	// Exported constant values (calibration knobs).
	for _, path := range cfg.ConstPkgs {
		cp := w.Pkg(path)
		if cp == nil {
			return nil, fmt.Errorf("const package %s not loaded", path)
		}
		scope := cp.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !c.Exported() {
				continue
			}
			lines = append(lines, fmt.Sprintf("const %s.%s = %s", path, name, constString(c.Val())))
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// WriteSemanticsLock regenerates the lock file for the current world.
func WriteSemanticsLock(w *World, cfg VersionKeyConfig) (string, error) {
	pkg := w.Pkg(cfg.VersionPkg)
	if pkg == nil {
		return "", fmt.Errorf("lint: package %s not loaded; include it in the patterns", cfg.VersionPkg)
	}
	version, _, ok := versionValue(pkg, cfg.VersionConst)
	if !ok {
		return "", fmt.Errorf("lint: %s.%s not found", cfg.VersionPkg, cfg.VersionConst)
	}
	surface, err := ComputeSemanticsSurface(w, cfg)
	if err != nil {
		return "", fmt.Errorf("lint: %v", err)
	}
	var b strings.Builder
	b.WriteString("# daelint:versionkey surface.\n")
	fmt.Fprintf(&b, "# Declarations reachable from %s, keyed by %s.%s.\n", strings.Join(cfg.Roots, ", "), pkgBase(cfg.VersionPkg), cfg.VersionConst)
	b.WriteString("# Regenerate (after auditing whether persisted values can change\n")
	b.WriteString("# and bumping the version if so) with:\n")
	b.WriteString("#\n")
	b.WriteString("#   go run ./cmd/daelint -update-semantics ./...\n")
	b.WriteString("version " + version + "\n")
	for _, l := range surface {
		b.WriteString(l + "\n")
	}
	path := filepath.Join(pkg.Dir, cfg.LockFile)
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}

func versionValue(pkg *Package, name string) (string, token.Pos, bool) {
	obj, ok := pkg.Types.Scope().Lookup(name).(*types.Const)
	if !ok || obj.Val().Kind() != constant.String {
		return "", token.NoPos, false
	}
	return constant.StringVal(obj.Val()), obj.Pos(), true
}

// usesObject reports whether pkg's non-test files reference the named
// object of another package.
func usesObject(pkg *Package, objPkg, objName string) bool {
	for i, f := range pkg.Files {
		if i >= pkg.NumNonTest {
			break
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id.Name != objName {
				return true
			}
			if obj := pkg.Info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == objPkg {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func parseLock(content string) (version string, lines []string) {
	for _, l := range strings.Split(content, "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		if v, ok := strings.CutPrefix(l, "version "); ok {
			version = v
			continue
		}
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return version, lines
}

// diffLines returns the lines only in want (added) and only in got
// (removed), summarized by their identity prefix (first two tokens) so
// a signature change reads as one entry, not an add/remove pair.
func diffLines(got, want []string) (added, removed []string) {
	gotSet := map[string]bool{}
	for _, l := range got {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range want {
		wantSet[l] = true
	}
	ident := func(l string) string {
		parts := strings.SplitN(l, " ", 3)
		if len(parts) >= 2 {
			return parts[0] + " " + parts[1]
		}
		return l
	}
	gotIdent := map[string]bool{}
	for _, l := range got {
		gotIdent[ident(l)] = true
	}
	wantIdent := map[string]bool{}
	for _, l := range want {
		wantIdent[ident(l)] = true
	}
	seen := map[string]bool{}
	for _, l := range want {
		if !gotSet[l] && !seen[ident(l)] {
			seen[ident(l)] = true
			if gotIdent[ident(l)] {
				added = append(added, ident(l)+" (changed)")
			} else {
				added = append(added, ident(l))
			}
		}
	}
	for _, l := range got {
		if !wantSet[l] && !seen[ident(l)] {
			seen[ident(l)] = true
			removed = append(removed, ident(l))
		}
	}
	return added, removed
}

// constString renders a constant value stably.
func constString(v constant.Value) string {
	return v.ExactString()
}

// bodyHash fingerprints a function body through go/printer, which emits
// the syntax without comments: semantics-bearing edits change the hash,
// comment and whitespace churn does not.
func bodyHash(fset *token.FileSet, fd *ast.FuncDecl) string {
	if fd.Body == nil {
		return "none"
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, fd.Body); err != nil {
		return "unprintable"
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}
