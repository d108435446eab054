package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The //daelint: directive grammar (documented in DESIGN.md §12):
//
//	//daelint:nondeterministic-ok <reason>   suppress one determinism finding
//	//daelint:hotpath-ok <reason>            suppress one hotpath finding
//	//daelint:lockguard-ok <reason>          suppress one lockguard finding
//	//daelint:ctxflow-ok <reason>            suppress one ctxflow finding
//	//daelint:errclass-ok <reason>           suppress one errclass finding
//	//daelint:hotpath                        (func doc) audit this function's body
//	//daelint:concurrent-callback            (func doc) func-typed args run on goroutines
//	//daelint:ctx-root <reason>              (func doc) context flow starts here
//	//daelint:unkeyed <reason>               (struct field) exempt from cache-key coverage
//	//daelint:guardedby <mutex field>        (struct field) accesses require the mutex
//
// A *-ok suppression written on a code line applies to findings on that
// line; written alone on a line, it applies to the next line. Reasons are
// mandatory: an annotation that cannot say why it is safe is a finding
// itself. guardedby's argument names the sibling mutex field (only its
// first word is read, so a trailing comment may follow it).

// suppressionCategories are the line-scoped directives, keyed to the
// analyzer whose findings they silence.
var suppressionCategories = map[string]string{
	"nondeterministic-ok": "determinism",
	"hotpath-ok":          "hotpath",
	"lockguard-ok":        "lockguard",
	"ctxflow-ok":          "ctxflow",
	"errclass-ok":         "errclass",
}

// markerCategories are the declaration-scoped directives.
var markerCategories = map[string]bool{
	"hotpath":             true,
	"concurrent-callback": true,
	"ctx-root":            true,
	"unkeyed":             true,
	"guardedby":           true,
}

// reasonRequired lists directives whose argument (a justification, or
// for guardedby the guarding mutex's field name) is mandatory.
var reasonRequired = map[string]bool{
	"nondeterministic-ok": true,
	"hotpath-ok":          true,
	"lockguard-ok":        true,
	"ctxflow-ok":          true,
	"errclass-ok":         true,
	"ctx-root":            true,
	"unkeyed":             true,
	"guardedby":           true,
}

// Directive is one parsed //daelint: comment.
type Directive struct {
	Pos      token.Position
	Name     string // "nondeterministic-ok", "hotpath", ...
	Reason   string
	Line     int    // line the directive governs (suppressions only)
	Used     bool   // set when a suppression absorbs a finding
	OwnLine  bool   // the comment stands alone on its source line
	Analyzer string // analyzer silenced (suppressions only)
}

// Directives indexes one package's //daelint: comments.
type Directives struct {
	// All lists every directive in file/position order.
	All []*Directive
	// byLine maps "file:line" of the governed line to the suppressions
	// active there.
	byLine map[string][]*Directive
	// Malformed collects unknown names and missing reasons; the driver
	// reports them as findings of the pseudo-analyzer "directive".
	Malformed []Diagnostic
}

// Suppressions returns the suppression directives governing the given
// position for the given analyzer.
func (d *Directives) Suppressions(pos token.Position, analyzer string) []*Directive {
	var out []*Directive
	for _, dir := range d.byLine[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] {
		if dir.Analyzer == analyzer {
			out = append(out, dir)
		}
	}
	return out
}

const directivePrefix = "daelint:"

// parseDirectives scans every comment of the package.
func parseDirectives(fset *token.FileSet, pkg *Package) (*Directives, error) {
	d := &Directives{byLine: map[string][]*Directive{}}
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				name, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				reason = strings.TrimSpace(reason)
				dir := &Directive{Pos: pos, Name: name, Reason: reason}
				if _, isSupp := suppressionCategories[name]; !isSupp && !markerCategories[name] {
					d.Malformed = append(d.Malformed, Diagnostic{
						Pos: pos, Analyzer: "directive",
						Message: fmt.Sprintf("unknown directive //daelint:%s", name),
					})
					continue
				}
				if reasonRequired[name] && reason == "" {
					d.Malformed = append(d.Malformed, Diagnostic{
						Pos: pos, Analyzer: "directive",
						Message: fmt.Sprintf("//daelint:%s needs a reason: //daelint:%s <why this is safe>", name, name),
					})
					continue
				}
				if an, isSupp := suppressionCategories[name]; isSupp {
					dir.Analyzer = an
					dir.OwnLine = ownLine(pkg.Src[pos.Filename], pos)
					dir.Line = pos.Line
					if dir.OwnLine {
						dir.Line = pos.Line + 1
					}
					key := fmt.Sprintf("%s:%d", pos.Filename, dir.Line)
					d.byLine[key] = append(d.byLine[key], dir)
				}
				d.All = append(d.All, dir)
			}
		}
	}
	return d, nil
}

// ownLine reports whether the comment at pos is the first non-blank text
// on its source line.
func ownLine(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}

// funcDirective reports whether fn's doc comment carries the named
// marker directive, returning its reason.
func funcDirective(fn *ast.FuncDecl, name string) (string, bool) {
	return docDirective(fn.Doc, name)
}

// docDirective scans a comment group for a marker directive.
func docDirective(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
		if !ok {
			continue
		}
		n, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
		if n == name {
			return strings.TrimSpace(reason), true
		}
	}
	return "", false
}

// fieldDirective scans a struct field's doc and trailing comment for a
// marker directive.
func fieldDirective(field *ast.Field, name string) (string, bool) {
	if r, ok := docDirective(field.Doc, name); ok {
		return r, true
	}
	return docDirective(field.Comment, name)
}

// fieldDirectives collects every occurrence of the named marker on a
// field (doc and trailing comments), so duplicates can be diagnosed.
func fieldDirectives(field *ast.Field, name string) []string {
	var out []string
	for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
			if !ok {
				continue
			}
			n, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
			if n == name {
				out = append(out, strings.TrimSpace(reason))
			}
		}
	}
	return out
}
