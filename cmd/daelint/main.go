// Command daelint runs the repo's static-analysis suite (internal/lint):
// seven analyzers that enforce the determinism, schema-coverage, hot-path,
// version-bump, lock-discipline, context-flow and error-classification
// invariants the figures and the fleet failure ladder depend on. CI runs
// it as a required step; DESIGN.md §12 documents the analyzers and the
// //daelint: annotation grammar.
//
// Usage:
//
//	go run ./cmd/daelint ./...                      lint the module
//	go run ./cmd/daelint -tests ./...               include _test.go files
//	go run ./cmd/daelint -only determinism ./...    run a subset
//	go run ./cmd/daelint -json ./...                machine-readable findings
//	go run ./cmd/daelint -update-semantics ./...    regenerate semantics.lock and lower.lock
//
// Exit status is 1 when any finding survives, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"daesim/internal/lint"
)

func main() {
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	only := flag.String("only", "", "comma-separated analyzer subset (determinism,schemaguard,hotpath,versionkey,lockguard,ctxflow,errclass)")
	update := flag.Bool("update-semantics", false, "regenerate the versionkey locks (semantics.lock, lower.lock) instead of linting")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message/directive)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: daelint [-tests] [-only names] [-json] [-update-semantics] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := []*lint.Analyzer{
		lint.NewDeterminism(lint.DeterminismConfig{Paths: lint.DefaultDeterminismPaths}),
		lint.NewSchemaGuard(lint.DefaultSchemaConfig),
		lint.NewHotpath(),
	}
	for _, cfg := range lint.VersionKeyConfigs {
		analyzers = append(analyzers, lint.NewVersionKey(cfg))
	}
	analyzers = append(analyzers,
		lint.NewLockguard(lint.LockguardConfig{Paths: lint.DefaultConcurrencyPaths}),
		lint.NewCtxflow(lint.CtxflowConfig{Paths: lint.DefaultConcurrencyPaths}),
		lint.NewErrclass(lint.DefaultErrclassConfig),
	)
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Schemaguard's oracle check audits a test helper, so the world
	// always loads test files; determinism and hotpath skip them unless
	// -tests (Package.IsTestFile gates the walk).
	w, err := lint.Load(".", patterns, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	w.IncludeTests = *tests

	if *update {
		for _, cfg := range lint.VersionKeyConfigs {
			path, err := lint.WriteSemanticsLock(w, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Printf("daelint: wrote %s\n", path)
		}
		return
	}

	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
			}
		}
		for _, a := range sel {
			delete(keep, a.Name)
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "daelint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = sel
	}

	diags := lint.RunAnalyzers(w, analyzers)
	if *jsonOut {
		writeJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(relString(d.String()))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "daelint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the machine-readable finding shape CI archives next to
// chaos_smoke.json. Directive names the suppression that would silence
// the finding (empty for pseudo-analyzers like "directive").
type jsonDiag struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Analyzer  string `json:"analyzer"`
	Message   string `json:"message"`
	Directive string `json:"directive,omitempty"`
}

func writeJSON(diags []lint.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:      relString(d.Pos.Filename),
			Line:      d.Pos.Line,
			Col:       d.Pos.Column,
			Analyzer:  d.Analyzer,
			Message:   d.Message,
			Directive: lint.SuppressDirective(d.Analyzer),
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// relString strips the working directory prefix, keeping CI output
// clickable and the JSON artifact host-independent.
func relString(s string) string {
	wd, err := os.Getwd()
	if err != nil {
		return s
	}
	if strings.HasPrefix(s, wd+"/") {
		return s[len(wd)+1:]
	}
	return s
}
