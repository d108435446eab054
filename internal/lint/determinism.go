package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismConfig scopes the determinism analyzer to the packages
// whose code can reach a Result or figure value.
type DeterminismConfig struct {
	// Paths are import-path prefixes in scope.
	Paths []string
}

// DefaultDeterminismPaths are the result-affecting packages: everything
// between a trace and a rendered figure. The serving layer (daemon) and
// offline tooling are deliberately out of scope — wall-clock
// time there is operational, not result-affecting.
var DefaultDeterminismPaths = []string{
	"daesim/cmd/repro",
	"daesim/cmd/decsim",
	"daesim/internal/engine",
	"daesim/internal/machine",
	"daesim/internal/metrics",
	"daesim/internal/sweep",
	"daesim/internal/experiments",
	"daesim/internal/lower",
	"daesim/internal/partition",
	"daesim/internal/isa",
	"daesim/internal/kernel",
	"daesim/internal/workloads",
	// workgen's whole contract is determinism: a spec plus a seed must
	// regenerate the identical trace on every host (the fleet and the
	// cache fingerprint both depend on it).
	"daesim/internal/workgen",
	"daesim/internal/trace",
	"daesim/internal/memsys",
	"daesim/internal/plot",
	// faultinject's whole contract is determinism: a chaos schedule must
	// replay identically from its seed, so the package is held to the
	// same standard as the result-affecting pipeline.
	"daesim/internal/faultinject",
}

// nondetCalls are functions whose results depend on the host, the clock
// or the scheduler — anything reading one inside a result-affecting
// package can make figure values differ across hosts and runs.
var nondetCalls = map[string]string{
	"time.Now":             "wall-clock time",
	"time.Since":           "wall-clock time",
	"time.Until":           "wall-clock time",
	"runtime.GOMAXPROCS":   "host parallelism",
	"runtime.NumCPU":       "host parallelism",
	"runtime.NumGoroutine": "scheduler state",
}

// randPkgs are the packages whose package-level functions draw from an
// auto-seeded global source. Methods on an explicitly constructed
// *rand.Rand and the New*/Source constructors are pure functions of the
// seed — the repo's sanctioned randomness pattern — so only the
// package-level draws are flagged.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// autoSeededRand reports whether fn is a package-level draw from a rand
// package's global source.
func autoSeededRand(fn *types.Func) bool {
	if fn.Pkg() == nil || !randPkgs[fn.Pkg().Path()] {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // method on an explicitly seeded source
	}
	return !strings.HasPrefix(fn.Name(), "New")
}

// NewDeterminism builds the determinism analyzer: in result-affecting
// packages it flags map-range iteration, clock/host/scheduler reads, and
// goroutine result aggregation not funneled through the wave-deterministic
// ladder (index- or shard-key-addressed placement). Legitimate uses carry
// //daelint:nondeterministic-ok <reason>.
func NewDeterminism(cfg DeterminismConfig) *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "flags scheduling-, clock- and host-dependent constructs in result-affecting packages",
		Run: func(w *World, report func(pos token.Pos, format string, args ...any)) {
			concurrent := concurrentCallbackIndex(w)
			for _, path := range w.Paths {
				pkg := w.Pkgs[path]
				if !hasPathPrefix(pkg.Path, cfg.Paths) || !w.analyzePkg(pkg) {
					continue
				}
				for i, f := range pkg.Files {
					if !w.analyzeFile(pkg, i) {
						continue
					}
					checkDeterminismFile(pkg, f, concurrent, report)
				}
			}
		},
	}
}

// concurrentCallbackIndex collects the funcKeys of functions annotated
// //daelint:concurrent-callback across the world, so callers in any
// package treat func literals passed to them as goroutine bodies.
func concurrentCallbackIndex(w *World) map[string]bool {
	idx := map[string]bool{}
	for _, path := range w.Paths {
		pkg := w.Pkgs[path]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, ok := funcDirective(fd, "concurrent-callback"); ok {
					idx[declKey(pkg.Path, fd)] = true
				}
			}
		}
	}
	return idx
}

func checkDeterminismFile(pkg *Package, f *ast.File, concurrent map[string]bool, report func(pos token.Pos, format string, args ...any)) {
	info := pkg.Info
	walkStack(f, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapType(info.TypeOf(n.X)) {
				report(n.Range, "map iteration order is nondeterministic and can reach a Result or figure value; iterate a sorted key slice, or annotate //daelint:nondeterministic-ok <reason>")
			}
		case *ast.SelectStmt:
			if selectIsRacy(n) {
				report(n.Select, "select arbitration is scheduling-dependent; funnel results through deterministic placement, or annotate //daelint:nondeterministic-ok <reason>")
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				key := funcKey(fn)
				if what, ok := nondetCalls[key]; ok {
					report(n.Pos(), "%s reads %s, which is not a function of the inputs; derive the value from the trace/params, or annotate //daelint:nondeterministic-ok <reason>", key, what)
				} else if autoSeededRand(fn) {
					report(n.Pos(), "%s.%s draws from the auto-seeded global source; use rand.New(rand.NewSource(seed)) with a seed threaded through params, or annotate //daelint:nondeterministic-ok <reason>", fn.Pkg().Path(), fn.Name())
				}
				if concurrent[funcKey(fn)] {
					for _, arg := range n.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							checkConcurrentBody(pkg, lit, stack, report)
						}
					}
				}
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				checkConcurrentBody(pkg, lit, stack, report)
			}
		}
		return true
	})
}

// selectIsRacy reports whether a select has a scheduling-dependent
// outcome: more than one communication case, or a case racing a default.
func selectIsRacy(sel *ast.SelectStmt) bool {
	cases := 0
	hasDefault := false
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok {
			if cc.Comm == nil {
				hasDefault = true
			} else {
				cases++
			}
		}
	}
	return cases > 1 || (cases >= 1 && hasDefault)
}

// checkConcurrentBody audits a function literal that runs on its own
// goroutine. Aggregation into captured state is deterministic only when
// each goroutine's writes land at a slot derived from its shard: an
// index or key mentioning a literal-local variable or an enclosing loop
// variable. Order-dependent accumulation (append to a captured slice,
// writes to a captured map under a shared key) is flagged.
func checkConcurrentBody(pkg *Package, lit *ast.FuncLit, stack []ast.Node, report func(pos token.Pos, format string, args ...any)) {
	info := pkg.Info
	shard := shardObjects(pkg, lit, stack)
	captured := func(e ast.Expr) (types.Object, bool) {
		obj := rootObject(info, e)
		if obj == nil || obj.Pos() == token.NoPos {
			return nil, false
		}
		inside := obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
		return obj, !inside
	}
	sharded := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil && shard[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			obj, isCaptured := captured(lhs)
			if !isCaptured {
				continue
			}
			// Index/key-addressed placement: deterministic iff the slot
			// is a function of the goroutine's shard.
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if sharded(idx.Index) {
					continue
				}
				if isMapType(info.TypeOf(idx.X)) {
					report(as.Pos(), "goroutine writes shared map through %s with a key not derived from its shard; key by the shard index, or annotate //daelint:nondeterministic-ok <reason>", obj.Name())
				} else {
					report(as.Pos(), "goroutine writes shared %s at an index not derived from its shard, so placement depends on scheduling; index by the shard, or annotate //daelint:nondeterministic-ok <reason>", obj.Name())
				}
				continue
			}
			// Plain captured target: appends accumulate in completion
			// order, which is scheduling-dependent.
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && info.Types[id].IsBuiltin() {
					report(as.Pos(), "goroutine appends to captured %s, making element order scheduling-dependent; place results by shard index (results[i] = v), or annotate //daelint:nondeterministic-ok <reason>", obj.Name())
				}
			}
		}
		return true
	})
}

// shardObjects collects the identifiers that partition work between
// goroutines: the literal's own parameters and locals, plus loop
// variables of the for/range statements enclosing the launch site.
func shardObjects(pkg *Package, lit *ast.FuncLit, stack []ast.Node) map[types.Object]bool {
	info := pkg.Info
	shard := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if id == nil {
			return
		}
		if obj := info.ObjectOf(id); obj != nil {
			shard[obj] = true
		}
	}
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if id, ok := n.Key.(*ast.Ident); ok {
				mark(id)
			}
			if id, ok := n.Value.(*ast.Ident); ok {
				mark(id)
			}
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok {
				for _, l := range init.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						mark(id)
					}
				}
			}
		}
	}
	// Everything declared inside the literal (params and locals) is
	// goroutine-local by construction.
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				shard[obj] = true
			}
		}
		return true
	})
	return shard
}
