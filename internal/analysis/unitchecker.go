package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
)

// VetConfig is the compilation-unit description `go vet -vettool=`
// hands the tool for every package (the x/tools unitchecker protocol).
type VetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoVersion    string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ModulePath   string
	ImportMap    map[string]string
	PackageFile  map[string]string
	Standard     map[string]bool
	PackageVetx  map[string]string
	VetxOnly     bool
	VetxOutput   string

	SucceedOnTypecheckFailure bool
}

// analyzerScopeUnion is every import-path scope any suite analyzer
// applies to. `go vet` drives the tool over the full dependency graph
// including the standard library; packages outside the union are
// acknowledged without even being parsed.
var analyzerScopeUnion = []string{
	"internal/sim", "internal/core", "internal/des", "internal/bb",
	"internal/periodic", "internal/campaign", "internal/server",
	"internal/decide",
}

// RunUnitchecker executes the suite over one vet.cfg compilation unit
// and returns the unsuppressed diagnostics. The facts file (VetxOutput)
// is always written — cmd/go caches it per package — but the suite
// exchanges no facts, so it is empty.
func RunUnitchecker(cfgPath string) ([]Diagnostic, error) {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, fmt.Errorf("reading vet config: %v", err)
	}
	var cfg VetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly || !PathInScope(cfg.ImportPath, analyzerScopeUnion...) {
		return nil, nil
	}
	fset := token.NewFileSet()
	// Import paths written in source resolve through ImportMap
	// (vendoring, test variants) to the package whose export data
	// PackageFile lists.
	var imp types.Importer = ExportImporter(fset, cfg.PackageFile)
	if len(cfg.ImportMap) > 0 {
		imp = mappedImporter{m: cfg.ImportMap, inner: imp}
	}
	pkg, terr := TypeCheck(fset, imp, cfg.ImportPath, cfg.GoFiles)
	if terr != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("type-checking %s: %v", cfg.ImportPath, terr)
	}
	diags := RunAnalyzers(Analyzers(), fset, pkg.Files, pkg.Types, pkg.Info, cfg.ModulePath)
	var unsuppressed []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			unsuppressed = append(unsuppressed, d)
		}
	}
	return unsuppressed, nil
}

// mappedImporter rewrites source import paths through the vet config's
// ImportMap before the export-data lookup.
type mappedImporter struct {
	m     map[string]string
	inner types.Importer
}

func (mi mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	return mi.inner.Import(path)
}
