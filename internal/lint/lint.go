// Package lint is btpub's custom analyzer suite: it mechanizes the
// invariants the repo otherwise enforces only by convention and by
// after-the-fact tests. See doc.go for the catalogue of analyzers and
// cmd/btpub-vet for the driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one diagnostic: which analyzer fired, where, and why.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col form. The file is
// whatever the loader recorded (absolute for module loads); the driver
// rewrites it module-relative before printing.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in allowlist entries and diagnostics.
	Name string
	// Doc is the one-line invariant the analyzer guards.
	Doc string
	// Scope restricts the analyzer to packages whose import path matches
	// one of these prefixes (a prefix matches itself and any subpackage).
	// Empty means every package.
	Scope []string
	Run   func(*Pass)
}

// InScope reports whether the analyzer applies to the package.
func (a *Analyzer) InScope(importPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, pre := range a.Scope {
		if importPath == pre || strings.HasPrefix(importPath, pre+"/") {
			return true
		}
	}
	return false
}

// All is the suite, in the order findings are attributed.
var All = []*Analyzer{VFSOnly, Determinism, NoBgCtx, Envelope, ErrFmtVerb}

// ByName resolves an analyzer, for allowlist validation.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Check runs every in-scope analyzer of the suite over the package and
// returns the findings sorted by position. Test files never reach it:
// every invariant in the suite is about production code, and the loader
// never lists _test.go files.
func Check(pkg *Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		if !a.InScope(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			analyzer: a,
			findings: &out,
		}
		a.Run(pass)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}

// ---------------------------------------------------------------------
// Shared AST/type helpers
// ---------------------------------------------------------------------

// calleeFunc resolves a call expression to the package-level function it
// invokes, or nil (method values, conversions, locals, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether the call invokes pkgPath.name (a top-level
// function; import renames are resolved through the type info).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}

// enclosingFuncDecl returns the top-level function declaration whose
// body spans pos, or nil (package-level var initializers and such).
// Function literals resolve to the declaration they appear inside.
func enclosingFuncDecl(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				return fd
			}
		}
	}
	return nil
}

// recvTypeName returns the name of a method's receiver type ("" for
// plain functions), with any pointer stripped.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
