package lint

import (
	"go/ast"
	"go/token"
	"go/types"
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
	// WirePkg.WireType is the wire form of ParamsType: field names must
	// match 1:1 with ParamsType, every wire field needs a json tag, and the To/From converters must read
	// every field they translate.
	WirePkg, WireType, WireTo, WireFrom string
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
	WirePkg: "daesim/internal/daemon", WireType: "Params", WireTo: "ToParams", WireFrom: "Machine",
	ResultPkg:    "daesim/internal/engine",
	ResultTypes:  []string{"Result", "CoreStats"},
	CloneFunc:    "Clone",
	OracleFunc:   "resultsEqual",
	SourceKeyPkg: "daesim/internal/machine", SourceKeyFunc: "Fingerprint",
	SourceStructs: [][2]string{
		{"daesim/internal/trace", "Instr"},
		{"daesim/internal/partition", "Assignment"},
	},
}

// NewSchemaGuard builds the schemaguard analyzer: the static form of the
// field-coverage invariants the repo previously pinned with
// reflect.NumField counts — every Params field reaches the cache-key
// encoding and the wire schema, every reference-typed Result field is
// deep-copied by Clone, every trace instruction field and assignment
// slice reaches the source key — with diagnostics that name the missing
// field.
func NewSchemaGuard(cfg SchemaConfig) *Analyzer {
	return &Analyzer{
		Name: "schemaguard",
		Doc:  "proves cache-key, wire-schema, clone and source-key field coverage",
		Run: func(w *World, report func(pos token.Pos, format string, args ...any)) {
			checkCacheKey(w, cfg, report)
			checkWireParity(w, cfg, report)
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

// checkWireParity: machine params and wire params must declare the same
// field names, wire fields must carry json
// tags, and the converters must read every field they translate.
func checkWireParity(w *World, cfg SchemaConfig, report func(pos token.Pos, format string, args ...any)) {
	if cfg.ParamsPkg == "" || cfg.WirePkg == "" {
		return
	}
	ppkg, wpkg := w.Pkg(cfg.ParamsPkg), w.Pkg(cfg.WirePkg)
	if ppkg == nil || wpkg == nil {
		return
	}
	_, pFields, _ := structFields(ppkg, cfg.ParamsType)
	wNamed, wFields, wAst := structFields(wpkg, cfg.WireType)
	if pFields == nil || wFields == nil {
		return
	}
	wireSet := map[string]bool{}
	for _, f := range wFields {
		wireSet[f.Name()] = true
	}
	machineSet := map[string]bool{}
	for _, f := range pFields {
		machineSet[f.Name()] = true
		if !wireSet[f.Name()] {
			report(f.Pos(), "field %s added to %s.%s but missing from the wire struct %s.%s: a daemon would silently simulate the default value; extend the protocol", f.Name(), pkgBase(cfg.ParamsPkg), cfg.ParamsType, pkgBase(cfg.WirePkg), cfg.WireType)
		}
	}
	for _, f := range wFields {
		if !machineSet[f.Name()] {
			report(f.Pos(), "wire field %s has no counterpart in %s.%s: dead protocol surface, or a rename that forgot one side", f.Name(), pkgBase(cfg.ParamsPkg), cfg.ParamsType)
		}
		if tag, ok := wireJSONTag(wNamed, f.Name()); !ok || tag == "" {
			report(f.Pos(), "wire field %s has no json tag: the field name would leak into the protocol and silently change on a rename", f.Name())
		}
	}
	// Converter coverage: To must read every wired machine field, From
	// every wire field, or a new field round-trips as the zero value.
	if cfg.WireTo != "" {
		if to := findFunc(wpkg, cfg.WireTo, ""); to != nil {
			read := fieldsRead(w, wpkg, to, cfg.ParamsPkg, cfg.ParamsType)
			for _, f := range pFields {
				if machineSet[f.Name()] && !read[f.Name()] {
					report(f.Pos(), "%s does not read %s.%s, so the wire form drops field %s", cfg.WireTo, cfg.ParamsType, f.Name(), f.Name())
				}
			}
		}
	}
	if cfg.WireFrom != "" {
		if from := findFunc(wpkg, cfg.WireFrom, cfg.WireType); from != nil {
			read := fieldsRead(w, wpkg, from, cfg.WirePkg, cfg.WireType)
			for _, f := range wFields {
				if !read[f.Name()] {
					report(f.Pos(), "%s does not read wire field %s, so the daemon drops it on decode", cfg.WireFrom, f.Name())
				}
			}
		}
	}
	_ = wAst
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

// wireJSONTag extracts the json tag of the named field.
func wireJSONTag(named *types.Named, field string) (string, bool) {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			tag := st.Tag(i)
			return reflectStructTagGet(tag, "json"), true
		}
	}
	return "", false
}

// reflectStructTagGet is reflect.StructTag.Get without importing reflect
// for one call; the format is the conventional key:"value" list.
func reflectStructTagGet(tag, key string) string {
	for tag != "" {
		i := 0
		for i < len(tag) && tag[i] == ' ' {
			i++
		}
		tag = tag[i:]
		if tag == "" {
			break
		}
		i = 0
		for i < len(tag) && tag[i] > ' ' && tag[i] != ':' && tag[i] != '"' && tag[i] != 0x7f {
			i++
		}
		if i == 0 || i+1 >= len(tag) || tag[i] != ':' || tag[i+1] != '"' {
			break
		}
		name := tag[:i]
		tag = tag[i+1:]
		i = 1
		for i < len(tag) && tag[i] != '"' {
			if tag[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(tag) {
			break
		}
		value := tag[1:i]
		tag = tag[i+1:]
		if name == key {
			return value
		}
	}
	return ""
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
