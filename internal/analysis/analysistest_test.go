package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest on the stdlib: each
// fixture package under testdata/src carries `// want "substring"`
// comments on the lines the suite must flag; the test type-checks the
// fixture (fixture-local imports resolve from the same tree, everything
// else from the toolchain's export data), runs the full analyzer suite
// and matches the unsuppressed diagnostics against the expectations —
// both directions: every want must be hit, every diagnostic wanted.

func TestDeterminismFixture(t *testing.T)   { checkFixture(t, "internal/des") }
func TestNilGateFixture(t *testing.T)       { checkFixture(t, "internal/sim") }
func TestEngineVersionFixture(t *testing.T) { checkFixture(t, "internal/campaign") }
func TestEngineVersionStaleFixture(t *testing.T) {
	checkFixture(t, "internal/campaign/stale")
}

func checkFixture(t *testing.T, importPath string) {
	t.Helper()
	pkg := loadFixture(t, importPath)
	diags := RunAnalyzers(Analyzers(), pkg.Fset, pkg.Files, pkg.Types, pkg.Info, "")

	wants := collectWants(pkg.Fset, pkg.Files)
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for i, w := range wants[key] {
			if w.used || !strings.Contains(d.Message, w.substr) {
				continue
			}
			wants[key][i].used = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s (%s)", key, d.Message, d.Analyzer)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("missing diagnostic at %s: want message containing %q", k, w.substr)
			}
		}
	}
}

type want struct {
	substr string
	used   bool
}

var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// collectWants scans the fixture files' comments for `// want "..."`
// expectations, keyed by file:line.
func collectWants(fset *token.FileSet, files []*ast.File) map[string][]want {
	wants := map[string][]want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						continue
					}
					wants[key] = append(wants[key], want{substr: s})
				}
			}
		}
	}
	return wants
}

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, importPath string) *Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fi := newFixtureImporter(t, root)
	pkg, err := fi.load(importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}
	return pkg
}

// fixtureImporter resolves fixture-local import paths from testdata/src
// (type-checking them recursively) and everything else through gc export
// data obtained from `go list` — the same machinery the real drivers use.
type fixtureImporter struct {
	t    *testing.T
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
}

func newFixtureImporter(t *testing.T, root string) *fixtureImporter {
	fset := token.NewFileSet()
	listed, err := goList(".", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Module",
		"sync", "time", "sort", "math/rand")
	if err != nil {
		t.Fatalf("listing stdlib export data: %v", err)
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return &fixtureImporter{
		t:    t,
		root: root,
		fset: fset,
		std:  ExportImporter(fset, exports),
		pkgs: map[string]*Package{},
	}
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := fi.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return fi.std.Import(path)
}

func (fi *fixtureImporter) load(importPath string) (*Package, error) {
	if pkg, ok := fi.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(importPath))
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		return nil, fmt.Errorf("no fixture sources in %s", dir)
	}
	sort.Strings(matches)
	pkg, terr := TypeCheck(fi.fset, fi, importPath, matches)
	if terr != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", importPath, terr)
	}
	fi.pkgs[importPath] = pkg
	return pkg, nil
}

// TestSuppressionAudit pins the ignore-directive contract directly: a
// justified ignore silences its diagnostic but keeps it in the report
// with the justification attached, and a bare ignore is itself reported.
func TestSuppressionAudit(t *testing.T) {
	src := `package des

func f(m map[int]int) int {
	s := 0
	//ioschedvet:ignore determinism summed result is order-independent
	for _, v := range m {
		s += v
	}
	//ioschedvet:ignore determinism
	for k := range m {
		s += k
	}
	return s
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{}
	tpkg, err := conf.Check("internal/des", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(Analyzers(), fset, []*ast.File{f}, tpkg, info, "")
	var suppressed, mapDiags, bareDiags int
	for _, d := range diags {
		switch {
		case d.Suppressed:
			suppressed++
			if !strings.Contains(d.Justification, "order-independent") {
				t.Errorf("suppressed diagnostic lost its justification: %+v", d)
			}
		case d.Analyzer == "ioschedvet":
			bareDiags++
			if !strings.Contains(d.Message, "justification") {
				t.Errorf("bare-ignore diagnostic should demand a justification: %s", d.Message)
			}
		case d.Analyzer == "determinism":
			mapDiags++
		}
	}
	if suppressed != 1 || bareDiags != 1 || mapDiags != 1 {
		t.Errorf("got %d suppressed, %d bare-ignore, %d unsuppressed determinism diagnostics; want 1 each\n%v",
			suppressed, bareDiags, mapDiags, diags)
	}
}
