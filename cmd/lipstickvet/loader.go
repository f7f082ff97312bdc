package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks module packages without external tooling:
// intra-module imports resolve against the module root discovered from
// go.mod, everything else through the compiler's export data (with a
// from-source fallback). Test files are excluded — the analyzers check
// shipping code.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string

	checked map[string]*Package // import path -> package (nil while loading)
	stdlib  types.Importer
	src     types.Importer
}

// NewLoader discovers the enclosing module starting at dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: path,
		checked:    map[string]*Package{},
		stdlib:     importer.Default(),
		src:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lipstickvet: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lipstickvet: no go.mod found above %s", abs)
		}
	}
}

// Expand resolves package patterns ("./...", "./internal/store", an import
// path) into package directories, sorted. The all-packages walk skips
// testdata, hidden directories, and directories without non-test Go files.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if abs, err := filepath.Abs(dir); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "..."):
			base := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if base == "" || base == "." {
				base = "."
			}
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || isModuleRoot(p)) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		case strings.HasPrefix(pat, l.modulePath):
			rel := strings.TrimPrefix(strings.TrimPrefix(pat, l.modulePath), "/")
			add(filepath.Join(l.moduleRoot, rel))
		default:
			add(pat)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// isModuleRoot reports whether dir holds a go.mod: a nested module is a
// separate build with its own dependencies, not part of this one.
func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(l.importPathFor(abs), abs)
}

// importPathFor maps a directory to its module import path ("" when the
// directory is outside the module, e.g. an analyzer fixture).
func (l *Loader) importPathFor(abs string) string {
	rel, err := filepath.Rel(l.moduleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return ""
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer over the three source kinds: module
// packages from source, the standard library from export data (falling
// back to from-source type checking).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.load(path, filepath.Join(l.moduleRoot, rel))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, err := l.stdlib.Import(path); err == nil {
		return pkg, nil
	}
	return l.src.Import(path)
}

// load parses and type-checks one directory, memoized by import path.
func (l *Loader) load(importPath, dir string) (*Package, error) {
	if importPath != "" {
		if pkg, ok := l.checked[importPath]; ok {
			if pkg == nil {
				return nil, fmt.Errorf("lipstickvet: import cycle through %s", importPath)
			}
			return pkg, nil
		}
		l.checked[importPath] = nil // cycle marker
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines and GOOS/GOARCH
		// filename suffixes) so platform-gated files — e.g. the mmap
		// implementation and its stub — are not type-checked together.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lipstickvet: no Go files in %s", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	name := importPath
	if name == "" {
		name = "fixture/" + filepath.Base(dir)
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(name, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lipstickvet: type-checking %s: %w", dir, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	if importPath != "" {
		l.checked[importPath] = pkg
	}
	return pkg, nil
}
