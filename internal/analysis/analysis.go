// Package analysis is a self-contained go/analysis-style framework for the
// iqlint suite (cmd/iqlint). The transport's correctness rests on contracts
// the compiler cannot see — the Env.Emit / Machine.HandlePacket borrow
// discipline, pooled-buffer release on every path, no time.After in loops,
// no blocking I/O under a shard lock, socket errors counted into Metrics,
// registered trace/attr vocabularies — so this package makes them
// machine-checked: each invariant is an Analyzer, run over fully
// type-checked packages by the loader in load.go (standalone mode) or by
// the `go vet -vettool` unitchecker protocol in unit.go.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the analyzers could migrate to the real framework if
// the dependency ever becomes available; everything here builds on the
// standard library only (go/ast, go/types, go/importer and the go command).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check: a name (also the suppression key used by
// //iqlint:ignore comments), a doc string shown by `iqlint -list`, and the
// Run function applied to every package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File // non-test files, with comments
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Callee resolves the *types.Func a call expression invokes (methods and
// package-level functions), or nil for builtins, conversions and calls
// through function-typed values.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name, where pkgPath matches exactly or as a "/"-suffix (so
// "internal/packet" matches the module-qualified import path).
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	f := p.Callee(call)
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return false
	}
	return PathMatches(f.Pkg().Path(), pkgPath)
}

// IsMethod reports whether call invokes method name on the named type
// pkgPath.typeName (through a pointer or value receiver, concrete or
// interface, including methods promoted from an embedded field).
func (p *Pass) IsMethod(call *ast.CallExpr, pkgPath, typeName, name string) bool {
	f := p.Callee(call)
	if f == nil || f.Name() != name {
		return false
	}
	for _, t := range p.ReceiverTypes(call) {
		if IsNamedType(t, pkgPath, typeName) {
			return true
		}
	}
	return false
}

// ReceiverTypes returns the candidate receiver types of a method call: the
// type the selection was made through and the method's declared receiver.
// These differ for promoted methods — (*net.UDPConn).SetReadBuffer is
// really declared on the unexported embedded *net.conn — and analyzers
// that match receivers by name must accept either. Empty for non-methods.
func (p *Pass) ReceiverTypes(call *ast.CallExpr) []types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var out []types.Type
	if s, ok := p.Info.Selections[sel]; ok {
		out = append(out, s.Recv())
		if f, ok := s.Obj().(*types.Func); ok {
			if r := f.Type().(*types.Signature).Recv(); r != nil {
				out = append(out, r.Type())
			}
		}
		return out
	}
	if f, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
		if r := f.Type().(*types.Signature).Recv(); r != nil {
			out = append(out, r.Type())
		}
	}
	return out
}

// namedRecv unwraps a receiver type to its named type's name and package
// path ("" for types in the universe scope).
func namedRecv(t types.Type) (name, pkgPath string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return obj.Name(), pkgPath
}

// PathMatches reports whether the import path `path` is exactly want or
// ends in "/"+want, so analyzers can name module-internal packages without
// hard-coding the module path.
func PathMatches(path, want string) bool {
	if path == want {
		return true
	}
	return len(path) > len(want) && path[len(path)-len(want)-1] == '/' &&
		path[len(path)-len(want):] == want
}

// IsNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	tn, path := namedRecv(t)
	return tn == name && PathMatches(path, pkgPath)
}
