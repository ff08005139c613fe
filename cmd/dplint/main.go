// Command dplint runs the repo's analyzer suite (DPL001-DPL006): the
// determinism, context-flow, atomic-write, allocation-bound and
// unsafe-confinement checks described in docs/ANALYZERS.md.
//
// Standalone, from the module root:
//
//	go run ./cmd/dplint            # lint ./...
//	go run ./cmd/dplint ./internal/codec/ ./cmd/dpserve/
//
// Findings print one per line as file:line:col: CODE: message and the
// exit status is 1; a clean run exits 0.
//
// As a vet tool, speaking cmd/go's unitchecker protocol:
//
//	go build -o /tmp/dplint ./cmd/dplint
//	go vet -vettool=/tmp/dplint ./...
//
// In vet mode the go tool drives dplint once per package with a JSON
// config file; test variants are skipped so both modes enforce the same
// scope (shipped code only).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/dpgrid/dpgrid/internal/analysis"
	"github.com/dpgrid/dpgrid/internal/analysis/driver"
	"github.com/dpgrid/dpgrid/internal/analysis/load"
	"github.com/dpgrid/dpgrid/internal/analysis/suite"
	"github.com/dpgrid/dpgrid/internal/atomicfile"
)

func main() {
	versionFlag := flag.String("V", "", "if 'full', print version and exit (vet protocol)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (vet protocol)")
	dirFlag := flag.String("C", ".", "module directory to lint from")
	flag.Parse()

	if *versionFlag != "" {
		printVersion()
		return
	}
	if *flagsFlag {
		fmt.Println("[]")
		return
	}
	if flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg") {
		os.Exit(vetMode(flag.Arg(0)))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := driver.Run(*dirFlag, suite.Analyzers(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dplint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		driver.Render(os.Stdout, findings)
		fmt.Fprintf(os.Stderr, "dplint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// printVersion answers `dplint -V=full`, which cmd/go uses as the cache
// key for vet results: the content hash makes rebuilt tools invalidate
// stale caches.
func printVersion() {
	name := filepath.Base(os.Args[0])
	sum := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum = fmt.Sprintf("%x", sha256.Sum256(data))[:16]
		}
	}
	fmt.Printf("%s version dplint-1.0.0 buildID=%s\n", name, sum)
}

// vetConfig is the relevant subset of the JSON package config cmd/go
// hands a -vettool (x/tools unitchecker's wire format).
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func vetMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dplint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dplint: parse config:", err)
		return 2
	}
	// cmd/go requires the facts file to exist for caching; dplint's
	// analyzers are fact-free, so an empty one is always correct.
	if cfg.VetxOutput != "" {
		if err := atomicfile.WriteBytes(cfg.VetxOutput, []byte{}); err != nil {
			fmt.Fprintln(os.Stderr, "dplint:", err)
			return 2
		}
	}
	// Dependencies are driven with VetxOnly for fact propagation, and
	// compiled test variants (pkg [pkg.test]) carry _test.go files:
	// neither is in dplint's scope.
	if cfg.VetxOnly || strings.Contains(cfg.ImportPath, ".test]") ||
		strings.HasSuffix(cfg.ImportPath, ".test") {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dplint:", err)
			return 2
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}
	imp := load.NewImporter(fset, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		exportFile, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("dplint: no export data for %q", path)
		}
		return os.Open(exportFile)
	})
	info := load.NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "dplint: typecheck:", err)
		return 2
	}

	rel := strings.TrimPrefix(cfg.ImportPath, suite.ModulePath)
	rel = strings.TrimPrefix(rel, "/")
	exit := 0
	for _, a := range suite.Analyzers() {
		diags, err := analysis.Run(a, fset, files, tpkg, info, cfg.ImportPath, rel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dplint:", err)
			return 2
		}
		diags = analysis.Filter(fset, files, diags)
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Code, d.Message)
			exit = 2
		}
	}
	return exit
}
