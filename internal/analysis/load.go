package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the suite's one driver: it loads and type-checks the
// module's packages without the go/packages machinery (this module is
// dependency-free), resolving module-local imports by recursive loading
// and standard-library imports through the source importer, which works
// straight from GOROOT with no network or export data.

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. gstored/internal/server
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader type-checks module-local packages on demand.
type Loader struct {
	Fset    *token.FileSet
	root    string // module root directory
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory containing
// go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// Import implements types.Importer: module-local paths load recursively
// from source, everything else defers to the standard-library importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	dir := l.root
	if path != l.modPath {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
	}
	return l.loadDir(dir, path)
}

// loadDir parses and type-checks the non-test files of one directory.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := ParseDir(l.Fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// ParseDir parses the buildable non-test Go files of dir, skipping
// files excluded by a //go:build constraint (a syntactic check good
// enough for this module, which uses no build tags in analyzed code).
func ParseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		if hasExcludingBuildTag(string(src)) {
			continue
		}
		f, err := parser.ParseFile(fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func hasExcludingBuildTag(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if strings.HasPrefix(line, "//go:build") && line != "//go:build" {
				return true // any constraint at all: skip rather than evaluate
			}
			continue
		}
		return false // reached package clause region
	}
	return false
}

// LoadAll loads every package under root (the `./...` pattern),
// skipping testdata, vendor, and hidden directories. Packages are
// returned in deterministic path order.
func LoadAll(root string) ([]*Package, *token.FileSet, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, nil, err
		}
		path := l.modPath
		if rel != "." {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, l.Fset, nil
}
