package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// SchemaConfig names the declarations the schemaguard analyzer proves
// field-coverage invariants over. Zero-valued entries disable the
// corresponding check, and checks whose packages are not in the loaded
// world are skipped, so partial runs (daelint ./internal/engine) stay
// quiet rather than wrong.
type SchemaConfig struct {
	// ParamsPkg.ParamsType is the simulation-parameter struct; every
	// field not annotated //daelint:unkeyed must be read — directly or
	// through the functions it calls — by CacheKeyFunc.
	ParamsPkg, ParamsType, CacheKeyFunc string
	// WirePkg.WireType is a struct that is its own wire form: every
	// field needs a unique, non-empty json name other than "-".
	WirePkg, WireType string
	// ResultPkg holds ResultTypes, whose reference-typed fields must
	// each be named inside CloneFunc (value fields ride the struct copy).
	ResultPkg   string
	ResultTypes []string
	CloneFunc   string
	// OracleFunc is the differential-oracle comparison (a test in
	// ResultPkg): it must compare whole Results structurally
	// (reflect.DeepEqual or ==), not field-by-field, so new Result
	// fields are covered by construction.
	OracleFunc string
	// SourceKeyPkg.SourceKeyFunc builds a suite's store key from the
	// inputs of lowering; every field of each SourceStructs entry
	// ({package path, type name}) not annotated //daelint:unkeyed must
	// be read by it, directly or through the functions it calls.
	SourceKeyPkg, SourceKeyFunc string
	SourceStructs               [][2]string
}

// DefaultSchemaConfig encodes this repo's schema invariants (DESIGN.md
// §9: cache identity; §10: wire protocol).
var DefaultSchemaConfig = SchemaConfig{
	ParamsPkg: "daesim/internal/machine", ParamsType: "Params", CacheKeyFunc: "CacheKey",
	WirePkg: "daesim/internal/machine", WireType: "Params",
	ResultPkg:    "daesim/internal/engine",
	ResultTypes:  []string{"Result", "CoreStats"},
	CloneFunc:    "Clone",
	OracleFunc:   "resultsEqual",
	SourceKeyPkg: "daesim/internal/machine", SourceKeyFunc: "Fingerprint",
	SourceStructs: [][2]string{
		{"daesim/internal/trace", "Trace"},
		{"daesim/internal/partition", "Assignment"},
	},
}

// NewSchemaGuard builds the schemaguard analyzer: the static form of the
// field-coverage invariants the repo previously pinned with
// reflect.NumField counts — every Params field reaches the cache-key
// encoding and carries its own wire name, every reference-typed Result
// field is deep-copied by Clone, every trace slab and
// assignment slice reaches the source key — with diagnostics that name
// the missing field.
func NewSchemaGuard(cfg SchemaConfig) *Analyzer {
	return &Analyzer{
		Name: "schemaguard",
		Doc:  "proves cache-key, wire-name, clone and source-key field coverage",
		Run: func(w *World, report func(pos token.Pos, format string, args ...any)) {
			checkCacheKey(w, cfg, report)
			checkWireTags(w, cfg, report)
			checkClone(w, cfg, report)
			checkOracle(w, cfg, report)
			checkSourceKey(w, cfg, report)
		},
	}
}

// structFields returns the declared fields of pkg's named struct and the
// AST field nodes carrying their comments, in declaration order.
func structFields(pkg *Package, typeName string) (*types.Named, []*types.Var, map[string]*ast.Field) {
	named, st := namedStruct(pkg, typeName)
	if named == nil {
		return nil, nil, nil
	}
	var fields []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		fields = append(fields, st.Field(i))
	}
	astFields := map[string]*ast.Field{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typeName {
				return true
			}
			if stl, ok := ts.Type.(*ast.StructType); ok {
				for _, fld := range stl.Fields.List {
					for _, name := range fld.Names {
						astFields[name.Name] = fld
					}
				}
			}
			return false
		})
	}
	return named, fields, astFields
}

// checkCacheKey: every Params field is read, transitively through the
// functions it calls, by the cache-key encoder.
func checkCacheKey(w *World, cfg SchemaConfig, report func(pos token.Pos, format string, args ...any)) {
	if cfg.ParamsPkg == "" || cfg.CacheKeyFunc == "" {
		return
	}
	pkg := w.Pkg(cfg.ParamsPkg)
	if pkg == nil {
		return
	}
	_, fields, astFields := structFields(pkg, cfg.ParamsType)
	if fields == nil {
		report(token.NoPos, "schema config names %s.%s, which does not exist", cfg.ParamsPkg, cfg.ParamsType)
		return
	}
	enc := findFunc(pkg, cfg.CacheKeyFunc, cfg.ParamsType)
	if enc == nil {
		report(token.NoPos, "schema config names encoder %s on %s.%s, which does not exist", cfg.CacheKeyFunc, cfg.ParamsPkg, cfg.ParamsType)
		return
	}
	read := fieldsRead(w, pkg, enc, cfg.ParamsPkg, cfg.ParamsType)
	for _, fld := range fields {
		if read[fld.Name()] {
			continue
		}
		if _, ok := fieldDirective(astFields[fld.Name()], "unkeyed"); ok {
			continue
		}
		report(fld.Pos(), "field %s added to %s.%s but not encoded in %s: distinct configurations would alias in the persistent result cache; extend the canonical encoding, or annotate //daelint:unkeyed <reason>", fld.Name(), pkgBase(cfg.ParamsPkg), cfg.ParamsType, cfg.CacheKeyFunc)
	}
}

// checkWireTags: every field of the wire struct carries a unique,
// non-empty json name other than "-", so no field is left off the wire,
// shadowed by another, or named by its Go identifier (which a rename
// would silently change).
func checkWireTags(w *World, cfg SchemaConfig, report func(pos token.Pos, format string, args ...any)) {
	if cfg.WirePkg == "" || cfg.WireType == "" {
		return
	}
	pkg := w.Pkg(cfg.WirePkg)
	if pkg == nil {
		return
	}
	named, fields, _ := structFields(pkg, cfg.WireType)
	if fields == nil {
		report(token.NoPos, "schema config names %s.%s, which does not exist", cfg.WirePkg, cfg.WireType)
		return
	}
	st := named.Underlying().(*types.Struct)
	owner := map[string]string{}
	for i, f := range fields {
		name, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		switch {
		case name == "":
			report(f.Pos(), "wire field %s.%s has no json name: the Go field name would leak into the protocol and silently change on a rename", cfg.WireType, f.Name())
		case name == "-":
			report(f.Pos(), "wire field %s.%s is tagged json:\"-\": it never crosses the wire, so a daemon would silently simulate its default value", cfg.WireType, f.Name())
		case owner[name] != "":
			report(f.Pos(), "wire field %s.%s reuses the json name %q of field %s: neither would cross the wire", cfg.WireType, f.Name(), name, owner[name])
		default:
			owner[name] = f.Name()
		}
	}
}

// checkClone: every reference-typed field of the result structs must be
// named inside Clone, which deep-copies on top of a struct copy.
func checkClone(w *World, cfg SchemaConfig, report func(pos token.Pos, format string, args ...any)) {
	if cfg.ResultPkg == "" || cfg.CloneFunc == "" {
		return
	}
	pkg := w.Pkg(cfg.ResultPkg)
	if pkg == nil || len(cfg.ResultTypes) == 0 {
		return
	}
	clone := findFunc(pkg, cfg.CloneFunc, cfg.ResultTypes[0])
	if clone == nil {
		report(token.NoPos, "schema config names %s on %s.%s, which does not exist", cfg.CloneFunc, cfg.ResultPkg, cfg.ResultTypes[0])
		return
	}
	for _, typeName := range cfg.ResultTypes {
		_, fields, _ := structFields(pkg, typeName)
		if fields == nil {
			report(token.NoPos, "schema config names %s.%s, which does not exist", cfg.ResultPkg, typeName)
			continue
		}
		mentioned := fieldsRead(w, pkg, clone, cfg.ResultPkg, typeName)
		for _, f := range fields {
			if !isReferenceType(f.Type()) || mentioned[f.Name()] {
				continue
			}
			report(f.Pos(), "reference-typed field %s.%s is not deep-copied by %s: a clone would alias the original's %s and cached Results could be scribbled on; extend %s", typeName, f.Name(), cfg.CloneFunc, f.Name(), cfg.CloneFunc)
		}
	}
}

// checkOracle: the differential-oracle comparison must be structural
// (reflect.DeepEqual / ==) over whole Results so new fields cannot be
// forgotten. A field-by-field comparison would need this analyzer to
// track coverage; requiring DeepEqual is simpler and stronger.
func checkOracle(w *World, cfg SchemaConfig, report func(pos token.Pos, format string, args ...any)) {
	if cfg.ResultPkg == "" || cfg.OracleFunc == "" {
		return
	}
	pkg := w.Pkg(cfg.ResultPkg)
	if pkg == nil {
		return
	}
	oracle := findFunc(pkg, cfg.OracleFunc, "")
	if oracle == nil {
		if w.Tests {
			// The helper lives in a test file, so only a test-loaded
			// world can miss it meaningfully.
			report(token.NoPos, "oracle comparison %s.%s not found: the reference-oracle tests no longer compare Results through the audited helper", pkgBase(cfg.ResultPkg), cfg.OracleFunc)
		}
		return
	}
	usesDeepEqual := false
	ast.Inspect(oracle.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pkg.Info, call); fn != nil && funcKey(fn) == "reflect.DeepEqual" {
			usesDeepEqual = true
		}
		return true
	})
	if !usesDeepEqual {
		report(oracle.Pos(), "%s must compare whole Results with reflect.DeepEqual so a new Result field is covered by construction, not by remembering to extend a field list", cfg.OracleFunc)
	}
}

// checkSourceKey: every field of the lowering-input structs must be
// read by the suite's source key.
func checkSourceKey(w *World, cfg SchemaConfig, report func(pos token.Pos, format string, args ...any)) {
	if cfg.SourceKeyPkg == "" || cfg.SourceKeyFunc == "" {
		return
	}
	keyPkg := w.Pkg(cfg.SourceKeyPkg)
	if keyPkg == nil {
		return
	}
	fn := findFunc(keyPkg, cfg.SourceKeyFunc, "")
	if fn == nil {
		report(token.NoPos, "schema config names %s in %s, which does not exist", cfg.SourceKeyFunc, cfg.SourceKeyPkg)
		return
	}
	for _, st := range cfg.SourceStructs {
		pkg := w.Pkg(st[0])
		if pkg == nil {
			continue
		}
		_, fields, astFields := structFields(pkg, st[1])
		if fields == nil {
			report(token.NoPos, "schema config names %s.%s, which does not exist", st[0], st[1])
			continue
		}
		read := fieldsRead(w, keyPkg, fn, st[0], st[1])
		for _, f := range fields {
			if read[f.Name()] {
				continue
			}
			if _, ok := fieldDirective(astFields[f.Name()], "unkeyed"); ok {
				continue
			}
			report(f.Pos(), "field %s of %s.%s is not read by the source key %s: suites differing only in %s would alias in the persistent store; extend the key, or annotate //daelint:unkeyed <reason>", f.Name(), pkgBase(st[0]), st[1], cfg.SourceKeyFunc, f.Name())
		}
	}
}

// findFunc locates a function or method declaration: recv "" matches
// plain functions and any method with that name when no plain function
// exists.
func findFunc(pkg *Package, name, recv string) *ast.FuncDecl {
	var anyMethod *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name {
				continue
			}
			if fd.Recv == nil || len(fd.Recv.List) == 0 {
				if recv == "" {
					return fd
				}
				continue
			}
			if recv == "" {
				anyMethod = fd
				continue
			}
			if declKey(pkg.Path, fd) == pkg.Path+".("+recv+")."+name {
				return fd
			}
		}
	}
	return anyMethod
}

// fieldsRead collects the fields of (structPkg, structName) selected
// anywhere in fn's body (fn is declared in pkg) or in the functions it
// calls, transitively, as far as their packages are loaded in w.
// Matching is by receiver type name and package path, so it works
// across type-checking universes (the struct may come from export
// data).
func fieldsRead(w *World, pkg *Package, fn *ast.FuncDecl, structPkg, structName string) map[string]bool {
	read := map[string]bool{}
	decls := map[*Package]map[string]*ast.FuncDecl{}
	visited := map[*ast.FuncDecl]bool{}
	var visit func(p *Package, fd *ast.FuncDecl)
	visit = func(p *Package, fd *ast.FuncDecl) {
		if fd == nil || fd.Body == nil || visited[fd] {
			return
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := p.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if owner, field := fieldOwner(sel); owner == structPkg+"."+structName {
						read[field] = true
					}
				}
			case *ast.CallExpr:
				callee := calleeFunc(p.Info, n)
				if callee == nil || callee.Pkg() == nil {
					break
				}
				cp := w.Pkg(callee.Pkg().Path())
				if cp == nil {
					break
				}
				if decls[cp] == nil {
					decls[cp] = funcDecls(cp)
				}
				visit(cp, decls[cp][funcKey(callee)])
			}
			return true
		})
	}
	visit(pkg, fn)
	return read
}

// fieldOwner resolves the struct type a field selection reads from,
// walking the selection's index path so embedded accesses attribute to
// the declaring struct.
func fieldOwner(sel *types.Selection) (owner, field string) {
	obj, ok := sel.Obj().(*types.Var)
	if !ok {
		return "", ""
	}
	// The declaring struct is the field object's parent type; recover it
	// by walking from the receiver through the index path.
	t := sel.Recv()
	for _, idx := range sel.Index() {
		for {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		named, _ := t.(*types.Named)
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return "", ""
		}
		f := st.Field(idx)
		if f.Name() == obj.Name() && named != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name(), f.Name()
		}
		t = f.Type()
	}
	return "", ""
}

// isReferenceType reports whether a value of type t can share state with
// a shallow copy of itself.
func isReferenceType(t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Signature, *types.Interface:
			return true
		case *types.Array:
			return walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	return walk(t)
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
