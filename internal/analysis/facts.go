package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the facts layer of the framework: the run-wide state
// that lets analyzers communicate across packages (go/analysis-style
// object facts), the dependency machinery that orders analyzers so
// facts exist before they are consumed, and the shared indexes (method
// sets for interface-call resolution, file→package mapping for scoped
// reporting) every interprocedural analyzer needs.
//
// A fact is a value an analyzer attaches to a types.Object — in
// practice a *types.Func ("transitively reaches the wall clock", "may
// allocate").
// Facts are in-memory only: one Run analyzes the full dependency
// closure of the requested packages in import order, so by the time a
// package is analyzed every fact about its dependencies has already
// been computed. Downstream analyzers declare the producers they read
// in Analyzer.Requires, and the scheduler (run.go) orders each
// package's passes accordingly.

// factKey identifies one exported fact: the analyzer that produced it
// and the object it describes.
type factKey struct {
	an  *Analyzer
	obj types.Object
}

// runState is shared by every Pass of one Run: exported facts, cached
// per-package call graphs, the run-wide method index, pre-scanned
// suppression directives, and the report scope.
type runState struct {
	fset     *token.FileSet
	pkgs     []*Package      // every analyzed package, dependency order
	reported map[string]bool // import paths whose findings are reported

	facts      map[factKey]any
	callgraphs map[*Package]*CallGraph
	// methods maps a method name to every concrete (non-interface)
	// method of that name declared in the analyzed packages, in
	// deterministic package/source order — the candidate set for
	// interface-call resolution.
	methods map[string][]*types.Func

	directives []*ignoreDirective
	fileOf     map[string]string // filename → import path of its package

	diags *[]Diagnostic
}

func newRunState(pkgs []*Package, reported map[string]bool, diags *[]Diagnostic) *runState {
	st := &runState{
		pkgs:       pkgs,
		reported:   reported,
		facts:      map[factKey]any{},
		callgraphs: map[*Package]*CallGraph{},
		methods:    map[string][]*types.Func{},
		fileOf:     map[string]string{},
		diags:      diags,
	}
	if len(pkgs) > 0 {
		st.fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			st.fileOf[pkg.Fset.Position(f.Pos()).Filename] = pkg.Path
		}
	}
	return st
}

// indexMethods registers every concrete method declared in pkg into the
// run-wide method index. Called once per package, before its passes
// run, so interface calls in pkg can resolve to implementations in pkg
// itself and in every dependency.
func (st *runState) indexMethods(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			st.methods[fn.Name()] = append(st.methods[fn.Name()], fn)
		}
	}
}

// ExportFact attaches fact to obj on behalf of this pass's analyzer.
// Later passes — the same analyzer on importing packages, or analyzers
// that list this one in Requires — read it back with FactOf.
func (p *Pass) ExportFact(obj types.Object, fact any) {
	p.state.facts[factKey{p.Analyzer, obj}] = fact
}

// FactOf returns the fact an attached to obj, if any. an must be the
// pass's own analyzer or one of its declared Requires — consuming an
// undeclared producer would break the scheduler's ordering guarantee,
// so it panics (a bug in the analyzer, not in the analyzed code).
func (p *Pass) FactOf(an *Analyzer, obj types.Object) (any, bool) {
	if an != p.Analyzer && !p.requires(an) {
		panic("analysis: " + p.Analyzer.Name + " reads facts of " + an.Name + " without declaring it in Requires")
	}
	f, ok := p.state.facts[factKey{an, obj}]
	return f, ok
}

// requires reports whether an is in the pass's analyzer's Requires.
func (p *Pass) requires(an *Analyzer) bool {
	for _, r := range p.Analyzer.Requires {
		if r == an {
			return true
		}
	}
	return false
}

// PackageReported reports whether findings in the package at path are
// part of this run's report scope. Frontier-style analyzers use it to
// report a taint exactly once: at the call edge where it enters the
// reported scope.
func (p *Pass) PackageReported(path string) bool {
	return p.state.reported == nil || p.state.reported[path]
}

// IsSuppressed reports whether a well-formed //lint:ignore directive
// naming analyzer covers pos's line. Fact producers consult it so a
// site an analyzer has adjudicated as safe (a suppressed warm-up
// append in a hot-path function) does not taint callers transitively.
// Consulting a directive here does not mark it used — only suppressing
// an actual finding does.
func (p *Pass) IsSuppressed(pos token.Pos, analyzer string) bool {
	position := p.Fset.Position(pos)
	for _, d := range p.state.directives {
		if d.malformed != "" || d.file != position.Filename || d.line != position.Line {
			continue
		}
		for _, name := range d.analyzers {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// funcDisplayName renders fn for diagnostics: pkg.Func for functions,
// pkg.Type.Method for methods, with stdlib packages by their import
// path ("time.Now").
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if recv := fnRecv(fn); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		return pkg.Name() + "." + name
	}
	return name
}
