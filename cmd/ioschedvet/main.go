// Command ioschedvet machine-enforces the engine invariants that
// docs/architecture.md and docs/performance.md state in prose. It runs
// the internal/analysis suite — determinism, nilgate, engineversion — in
// two interchangeable ways:
//
//	ioschedvet ./...                      # standalone multichecker
//	go vet -vettool=$(which ioschedvet) ./...   # unitchecker protocol
//
// plus the escape-analysis gate over //iosched:allocfree annotations:
//
//	ioschedvet -allocfree ./...
//
// Exit status 1 means unsuppressed diagnostics (or, with -allocfree,
// heap escapes in annotated functions). -json switches the standalone
// modes to a machine-readable report for CI annotations. See
// docs/static-analysis.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/buildinfo"
)

func main() {
	// The `go vet -vettool` driver probes the tool before handing it
	// compilation units: -flags must answer the supported-flags query
	// and -V=full the version/buildid query.
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		case "-V=full", "--V=full":
			fmt.Println("ioschedvet version 1")
			return
		}
	}

	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	allocfree := flag.Bool("allocfree", false, "run the //iosched:allocfree escape-analysis gate instead of the AST analyzers")
	showFingerprint := flag.Bool("fingerprint", false, "print the campaign schema fingerprint the engineversion analyzer expects, then exit")
	version := flag.Bool("version", false, "print build metadata and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ioschedvet [-json] [-allocfree] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", "allocfree", "forbid heap escapes in //iosched:allocfree functions (-allocfree mode)")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "ioschedvet")
		return
	}
	args := flag.Args()

	// Unitchecker mode: `go vet` invokes the tool with a single
	// compilation-unit config file.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		diags, err := analysis.RunUnitchecker(args[0])
		if err != nil {
			fatal("%v", err)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s\n", d)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}

	if *showFingerprint {
		printFingerprint(cwd, args)
		return
	}

	var diags []analysis.Diagnostic
	if *allocfree {
		diags, err = analysis.AllocFree(cwd, args...)
		if err != nil {
			fatal("%v", err)
		}
	} else {
		pkgs, lerr := analysis.Load(cwd, args...)
		if lerr != nil {
			fatal("%v", lerr)
		}
		for _, pkg := range pkgs {
			if pkg.TypeError != nil {
				fatal("type-checking %s: %v", pkg.ImportPath, pkg.TypeError)
			}
			diags = append(diags, analysis.RunAnalyzers(
				analysis.Analyzers(), pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.Module)...)
		}
		analysis.SortDiagnostics(diags)
	}
	report(diags, *jsonOut)
}

// jsonDiag is the -json wire shape of one diagnostic.
type jsonDiag struct {
	Analyzer      string `json:"analyzer"`
	File          string `json:"file"`
	Line          int    `json:"line"`
	Column        int    `json:"column"`
	Message       string `json:"message"`
	Suppressed    bool   `json:"suppressed,omitempty"`
	Justification string `json:"justification,omitempty"`
}

// report prints the diagnostics (suppressed ones only in -json, where
// the audit trail is part of the report) and exits 1 when any
// unsuppressed remain.
func report(diags []analysis.Diagnostic, jsonOut bool) {
	unsuppressed := 0
	for _, d := range diags {
		if !d.Suppressed {
			unsuppressed++
		}
	}
	if jsonOut {
		out := struct {
			Diagnostics  []jsonDiag `json:"diagnostics"`
			Unsuppressed int        `json:"unsuppressed"`
		}{Diagnostics: []jsonDiag{}, Unsuppressed: unsuppressed}
		for _, d := range diags {
			out.Diagnostics = append(out.Diagnostics, jsonDiag{
				Analyzer: d.Analyzer, File: d.Pos.Filename,
				Line: d.Pos.Line, Column: d.Pos.Column,
				Message: d.Message, Suppressed: d.Suppressed,
				Justification: d.Justification,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal("%v", err)
		}
	} else {
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			fmt.Println(d)
		}
	}
	if unsuppressed > 0 {
		fmt.Fprintf(os.Stderr, "ioschedvet: %d unsuppressed diagnostic(s)\n", unsuppressed)
		os.Exit(1)
	}
}

// printFingerprint loads internal/campaign and prints the schema
// fingerprint the engineversion analyzer pins, for refreshing the
// //iosched:engineversion directive after a deliberate schema change.
func printFingerprint(cwd string, patterns []string) {
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fatal("%v", err)
	}
	for _, pkg := range pkgs {
		if !analysis.PathInScope(pkg.ImportPath, "internal/campaign") {
			continue
		}
		hash, missing := analysis.SchemaFingerprint(pkg.Types, pkg.Module, []string{"CellResult", "fingerprint"})
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "ioschedvet: %s: schema root %q not found\n", pkg.ImportPath, m)
		}
		fmt.Printf("%s %s\n", pkg.ImportPath, hash)
		return
	}
	fatal("no internal/campaign package in %v", patterns)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ioschedvet: "+format+"\n", args...)
	os.Exit(1)
}
