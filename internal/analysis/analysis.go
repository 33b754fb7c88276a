// Package analysis is a self-contained static-analysis suite that
// enforces, at compile time, the invariants every quantitative claim in
// this reproduction rests on at run time: deterministic dispatch
// (byte-identical reports across -j1/-j8), exact cost conservation and
// cause attribution, panic-free protocol paths and allocation-free hot
// paths. Facts a table can hold (per-kind names, classes and telemetry
// roles) live in their kind tables and need no analyzer.
//
// The package mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer with a Run function over a Pass carrying the type-checked
// package — but is built entirely on the standard library (go/parser,
// go/types and the "source" importer), so it needs no module downloads
// and runs in a hermetic build. See the analyzer files (nodeterminism,
// chargecause, noprotocolpanic, hotalloc, detwalk, hotescape) for what
// is enforced and why, and cmd/platinum-vet for the multichecker that
// runs the suite over the tree.
//
// Findings can be suppressed per line with
//
//	//lint:ignore platinum/<analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory; suppressions are counted and reported by the driver,
// never silent.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check. Name is the short identifier reported
// and suppressed as "platinum/<name>"; Doc is a one-line description
// shown by platinum-vet -list.
//
// Requires lists the analyzers whose facts this one consumes (via
// Pass.FactOf); the scheduler runs them first on every package and
// auto-includes them in any run that includes this analyzer.
type Analyzer struct {
	Name     string
	Doc      string
	Run      func(*Pass) error
	Requires []*Analyzer
}

// Pass carries one type-checked, non-test package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	state *runState
	diags *[]Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, consulting both
// uses and definitions.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// calleeFunc resolves the called function or method of call, or nil for
// calls through function-valued expressions and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(fun.Sel)
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// fnRecv returns fn's receiver variable, or nil for plain functions.
// (Equivalent to fn.Signature().Recv(), spelled via Type() so the
// module keeps building under the go.mod language version.)
func fnRecv(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// pkgPathOf returns the import path of the package obj is declared in
// ("" for builtins and universe-scope objects).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// pathHasSuffix reports whether import path has the given slash-aware
// suffix: "platinum/internal/sim" matches suffix "internal/sim", but
// "x/notinternal/sim" does not. Matching by suffix keeps the analyzers
// applicable both to the real module and to fixture trees that mirror
// its layout under testdata.
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// simPackages are the import-path suffixes of the simulation packages
// whose code must be deterministic: any wall-clock read, unseeded
// randomness, or map-ordered emission there breaks the byte-identical
// -j1/-j8 report guarantee.
var simPackages = []string{
	"internal/sim",
	"internal/core",
	"internal/mach",
	"internal/kernel",
	"internal/phys",
	"internal/uma",
	"internal/vm",
	"internal/exp",
}

// isSimPackage reports whether path names one of the simulation
// packages covered by the determinism analyzers.
func isSimPackage(path string) bool {
	for _, s := range simPackages {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// protocolPackages are the import-path suffixes of the coherency
// protocol's implementation, where panics were hardened into
// ErrInvariant returns (PR 3) and must not reappear.
var protocolPackages = []string{
	"internal/core",
	"internal/mach",
}

// isProtocolPackage reports whether path is part of the protocol
// implementation covered by noprotocolpanic.
func isProtocolPackage(path string) bool {
	for _, s := range protocolPackages {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in stable registration order.
// The syntactic, single-package analyzers come first; the two
// interprocedural, fact-driven analyzers (detwalk, hotescape) close the
// list. The scheduler reorders per package as Requires demands.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerNoDeterminism,
		AnalyzerChargeCause,
		AnalyzerNoProtocolPanic,
		AnalyzerHotAlloc,
		AnalyzerDetWalk,
		AnalyzerHotEscape,
	}
}
