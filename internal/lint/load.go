package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// Package is one loaded, type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Filenames  []string // absolute paths of the non-test Go files
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader loads and type-checks packages using only the standard
// library: `go list -export -deps -json` supplies the file lists and
// the compiled export data of every dependency, so only the target
// packages themselves are type-checked from source. Test files are
// never loaded — every invariant in the suite is about production code.
type Loader struct {
	// Dir is the working directory for go commands ("" = current).
	Dir string

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	modDir  string
	imp     types.ImporterFrom
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = &exportImporter{l: l, gc: importer.ForCompiler(l.fset, "gc", l.lookup)}
	return l
}

// ModuleDir returns the directory of the main module, known after the
// first Load call.
func (l *Loader) ModuleDir() string { return l.modDir }

func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	f, ok := l.exports[path]
	if !ok || f == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(f)
}

// exportImporter resolves imports from compiled export data, with the
// one special case the gc importer does not own.
type exportImporter struct {
	l  *Loader
	gc types.Importer
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.ImportFrom(path, "", 0)
}

func (e *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.Import(path)
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Module     *struct{ Path, Dir string }
}

const listFields = "ImportPath,Dir,Name,Export,GoFiles,DepOnly,Standard,Module"

func (l *Loader) goList(extra []string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-json=" + listFields}, extra...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %w\n%s", args[0], err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load lists the patterns with their full dependency closure, records
// every dependency's export data, and type-checks each matched package
// from source. Returned packages are sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	pkgs, err := l.goList([]string{"-export", "-deps"}, patterns)
	if err != nil {
		return nil, err
	}
	var targets []*listPkg
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && l.modDir == "" {
			l.modDir = p.Module.Dir
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	out := make([]*Package, 0, len(targets))
	for _, t := range targets {
		pkg, err := l.check(t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks the single package in dir (which may live under a
// testdata tree, invisible to go list patterns). The imports of its
// files are resolved by listing them with -export first; they must be
// standard-library or main-module packages.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)

	// Parse first so the import set is known, then fetch export data for
	// any import not already cached.
	parsed, absFiles, err := l.parse(dir, files)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, f := range parsed {
		for _, im := range f.Imports {
			path, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				continue
			}
			if path != "unsafe" && l.exports[path] == "" {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		missing = compact(missing)
		deps, err := l.goList([]string{"-export", "-deps"}, missing)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if p.Export != "" {
				l.exports[p.ImportPath] = p.Export
			}
		}
	}
	return l.typecheck("fixture/"+filepath.Base(dir), dir, parsed, absFiles)
}

func compact(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || s[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

func (l *Loader) check(importPath, dir string, files []string) (*Package, error) {
	parsed, abs, err := l.parse(dir, files)
	if err != nil {
		return nil, err
	}
	return l.typecheck(importPath, dir, parsed, abs)
}

func (l *Loader) parse(dir string, files []string) ([]*ast.File, []string, error) {
	parsed := make([]*ast.File, 0, len(files))
	abs := make([]string, 0, len(files))
	for _, name := range files {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		parsed = append(parsed, f)
		abs = append(abs, path)
	}
	return parsed, abs, nil
}

func (l *Loader) typecheck(importPath, dir string, parsed []*ast.File, files []string) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: l.imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, l.fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Filenames:  files,
		Fset:       l.fset,
		Files:      parsed,
		Types:      tpkg,
		Info:       info,
	}, nil
}
