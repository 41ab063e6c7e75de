package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// Determinism guards byte-identical sharded campaigns: simulation
// packages take time from simclock (a Sim clock in sim runs, the Real
// seam where wall-clock is deliberate), randomness from rng.Labeled
// streams, and must not let Go's random map iteration order leak into
// output.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "sim packages: no time.Now, no math/rand, no map-iteration-ordered output",
	Scope: []string{
		"btpub/internal/campaign",
		"btpub/internal/crawler",
		"btpub/internal/ecosystem",
		"btpub/internal/population",
		"btpub/internal/portal",
		"btpub/internal/swarm",
	},
	Run: runDeterminism,
}

// wallClock are the time functions that read the machine clock.
var wallClock = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDeterminism(p *Pass) {
	for _, f := range p.Files {
		for _, im := range f.Imports {
			if path, err := strconv.Unquote(im.Path.Value); err == nil &&
				(path == "math/rand" || path == "math/rand/v2") {
				p.Reportf(im.Pos(), "import of %s in sim code: derive randomness from rng.Labeled streams so sharded runs stay byte-identical", path)
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn := calleeFunc(p.Info, n); fn != nil &&
						fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClock[fn.Name()] {
						p.Reportf(n.Pos(), "time.%s in sim code: take time from the simclock.Clock seam", fn.Name())
					}
				case *ast.RangeStmt:
					checkMapRange(p, fd, n)
				}
				return true
			})
		}
	}
}

// checkMapRange flags a range over a map whose iteration order can leak
// into output: printing/writing inside the loop body, or appending to
// an outer slice or field that is never sorted afterwards in the same
// function.
// Iterating to build another map, to sum, or to collect-then-sort is
// the legal pattern.
func checkMapRange(p *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	tv, ok := p.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(p.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				switch fn.Name() {
				case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
					p.Reportf(n.Pos(), "fmt.%s inside map iteration: order is random; collect and sort before emitting", fn.Name())
				}
			}
		case *ast.AssignStmt:
			checkMapRangeAppend(p, fd, rs, n)
		}
		return true
	})
}

// checkMapRangeAppend handles `s = append(s, ...)` and
// `x.f = append(x.f, ...)` inside a map range: fine if the slice variable
// (or the field) is sorted later in the function, or hangs off a
// variable declared inside the loop; a finding otherwise.
func checkMapRangeAppend(p *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	var target, root *ast.Ident // the appended-to object's name, its base variable
	switch lhs := as.Lhs[0].(type) {
	case *ast.Ident:
		target, root = lhs, lhs
	case *ast.SelectorExpr:
		target, root = lhs.Sel, baseIdent(lhs.X)
	default:
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	obj := p.Info.ObjectOf(target)
	if obj == nil {
		return
	}
	if root != nil {
		if ro := p.Info.ObjectOf(root); ro != nil && ro.Pos() >= rs.Pos() && ro.Pos() < rs.End() {
			// Declared inside the loop: its scope ends with the iteration, the
			// order cannot leak out through it.
			return
		}
	}
	if sortedAfter(p, fd, obj, rs.End()) {
		return
	}
	p.Reportf(as.Pos(), "append to %s inside map iteration without a later sort: result order is random", types.ExprString(as.Lhs[0]))
}

// baseIdent returns the variable a selector chain hangs off (x in x.a.b),
// or nil when the chain starts at a call, index or other expression.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether obj is passed to a sort/slices function
// after pos within the declaration.
func sortedAfter(p *Pass, fd *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && p.Info.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
