// Package analysis is ioschedvet's machine check of the engine
// invariants that docs/architecture.md and docs/performance.md state in
// prose: deterministic iteration and FP operation order in the decision
// paths, nil-gated probe capture ("disabled = zero cost"),
// allocation-free steady rounds and the campaign engineVersion bump
// rule.
//
// The package mirrors the golang.org/x/tools/go/analysis shape —
// Analyzer, Pass, Diagnostic — on the standard library alone, so the
// suite builds in a hermetic tree with no module downloads. Analyzers
// run from three drivers that share this package: cmd/ioschedvet's
// standalone multichecker (packages loaded via `go list -export`), the
// same binary speaking the `go vet -vettool=` unitchecker protocol, and
// the analysistest harness over testdata fixtures.
//
// Suppressions: a diagnostic is silenced by an auditable comment
//
//	//ioschedvet:ignore <analyzer> <justification>
//
// on the flagged line or the line directly above it. The justification
// is mandatory; a bare ignore is itself reported. See
// docs/static-analysis.md.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	// Doc is the one-line description shown by `ioschedvet -help`.
	Doc string
	// Run reports diagnostics through pass.Report. It must not retain
	// the pass.
	Run func(pass *Pass)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// ModulePath is the module the package belongs to ("repro" in this
	// tree); analyzers use it to tell first-party types from stdlib ones.
	// Fixture loaders set it to the fixture's root import path.
	ModulePath string

	diags *[]Diagnostic
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed is set by the driver when an //ioschedvet:ignore
	// comment covers the diagnostic.
	Suppressed bool
	// Justification carries the suppression comment's text when
	// Suppressed is set.
	Justification string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InScope reports whether the pass's package falls in one of the given
// import-path scopes. A scope like "internal/sim" matches the package
// whose import path is exactly that, ends with "/internal/sim", or
// continues below it ("repro/internal/sim", "internal/sim/subpkg").
// Fixture packages under testdata use scope-relative paths, so the same
// analyzers run unchanged over the real tree and the fixtures.
func (p *Pass) InScope(scopes ...string) bool {
	return PathInScope(p.Pkg.Path(), scopes...)
}

// PathInScope is InScope over a bare import path.
func PathInScope(path string, scopes ...string) bool {
	for _, s := range scopes {
		if path == s ||
			strings.HasSuffix(path, "/"+s) ||
			strings.HasPrefix(path, s+"/") ||
			strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}

// IgnoreDirective is the suppression comment prefix.
const IgnoreDirective = "//ioschedvet:ignore"

// suppression is one parsed //ioschedvet:ignore comment.
type suppression struct {
	file     string
	line     int
	analyzer string
	just     string
}

// ApplySuppressions marks diagnostics covered by //ioschedvet:ignore
// comments in the given files and appends a fresh diagnostic for every
// ignore that lacks a justification (an unexplained suppression defeats
// the audit trail). It returns the updated slice, sorted by position.
func ApplySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	var sups []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Analyzer: "ioschedvet",
						Pos:      pos,
						Message:  "ioschedvet:ignore needs an analyzer name and a justification: //ioschedvet:ignore <analyzer> <why this is safe>",
					})
					continue
				}
				sups = append(sups, suppression{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
					just:     strings.Join(fields[1:], " "),
				})
			}
		}
	}
	for i := range diags {
		d := &diags[i]
		for _, s := range sups {
			if s.file != d.Pos.Filename || s.analyzer != d.Analyzer {
				continue
			}
			// The ignore covers its own line and the line below it (the
			// comment-above-the-statement form).
			if s.line == d.Pos.Line || s.line == d.Pos.Line-1 {
				d.Suppressed = true
				d.Justification = s.just
				break
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer —
// the deterministic output order of every driver.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Analyzers returns the full ioschedvet suite in reporting order.
// The allocfree gate is not in this list: it checks compiler escape
// output rather than syntax trees and runs through AllocFree.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		NilGate,
		EngineVersion,
	}
}

// RunAnalyzers applies the given analyzers to one loaded package and
// returns the diagnostics with suppressions applied. Test files
// (*_test.go) are excluded from every analyzer: the invariants guard
// the engines' production decision paths, and tests legitimately use
// maps, wall clocks and unseeded randomness.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, modulePath string) []Diagnostic {
	prod := files[:0:0]
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		prod = append(prod, f)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      prod,
			Pkg:        pkg,
			Info:       info,
			ModulePath: modulePath,
			diags:      &diags,
		}
		a.Run(pass)
	}
	return ApplySuppressions(fset, prod, diags)
}
