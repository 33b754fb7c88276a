package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerNoDeterminism enforces the simulator's reproducibility
// contract in the simulation packages (internal/sim, core, mach,
// kernel, phys, uma, vm, exp): every run with the same inputs must
// produce byte-identical reports, whether the harness runs -j1 or -j8.
//
// Three bug classes break that contract and are flagged:
//
//   - reading the wall clock (time.Now, time.Since): simulated time is
//     the only clock the simulation may observe;
//   - the unseeded top-level math/rand functions, whose global source
//     makes runs irreproducible (construct a seeded *rand.Rand
//     instead; rand.New/rand.NewSource/rand.NewZipf are fine);
//   - ranging over a map while calling a scheduler-, span-, or
//     output-emitting function in the loop body: Go randomizes map
//     iteration order, so anything emitted from inside the loop — a
//     table row, a JSON record, a scheduling step — changes order
//     between runs. Collect into a slice and sort before emitting.
//
// Beyond reporting, the analyzer is the direct-source fact producer
// for detwalk: for every function in every analyzed package — sim or
// not — it exports a directNondetFact listing the nondeterminism
// sources in that function's own body, so detwalk can chase the same
// bug classes through call chains that leave the simulation packages.
var AnalyzerNoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock reads, unseeded math/rand and map-ordered emission in simulation packages",
	Run:  runNoDeterminism,
}

// nondetSource is one direct nondeterminism source in a function body:
// where it is, the message reported when it sits in a simulation
// package, and the short description detwalk splices into call chains.
type nondetSource struct {
	pos   token.Pos
	msg   string // full diagnostic for a direct finding
	short string // chain label, e.g. "time.Now (wall clock)"
}

// directNondetFact is the per-function fact: the nondeterminism
// sources written directly in the function (closures included).
type directNondetFact struct {
	sources []nondetSource
}

func runNoDeterminism(pass *Pass) error {
	report := isSimPackage(pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				// Package-level var initializers and the like: report
				// in scope, but there is no function to attach a fact
				// to (and no way to call into one either).
				if report {
					for _, src := range collectNondet(pass, decl) {
						pass.Reportf(src.pos, "%s", src.msg)
					}
				}
				continue
			}
			sources := collectNondet(pass, fd.Body)
			if len(sources) > 0 {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					pass.ExportFact(fn, directNondetFact{sources: sources})
				}
			}
			if report {
				for _, src := range sources {
					pass.Reportf(src.pos, "%s", src.msg)
				}
			}
		}
	}
	return nil
}

// collectNondet gathers the direct nondeterminism sources under n.
func collectNondet(pass *Pass, n ast.Node) []nondetSource {
	var out []nondetSource
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if src, ok := wallClockSource(pass, n); ok {
				out = append(out, src)
			}
			if src, ok := globalRandSource(pass, n); ok {
				out = append(out, src)
			}
		case *ast.RangeStmt:
			if src, ok := mapRangeEmissionSource(pass, n); ok {
				out = append(out, src)
			}
		}
		return true
	})
	return out
}

// wallClockSource matches uses of time.Now or time.Since — both read
// the host's wall clock, which must never influence a simulation.
func wallClockSource(pass *Pass, sel *ast.SelectorExpr) (nondetSource, bool) {
	obj := pass.ObjectOf(sel.Sel)
	if pkgPathOf(obj) != "time" {
		return nondetSource{}, false
	}
	name := obj.Name()
	if name != "Now" && name != "Since" {
		return nondetSource{}, false
	}
	return nondetSource{
		pos:   sel.Pos(),
		msg:   "time." + name + " reads the wall clock; simulation code must use virtual time (sim.Time) only",
		short: "time." + name + " (wall clock)",
	}, true
}

// globalRandAllowed are the math/rand package-level functions that do
// not touch the global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// globalRandSource matches top-level math/rand (and math/rand/v2)
// functions, which draw from a process-global, unseeded source.
func globalRandSource(pass *Pass, sel *ast.SelectorExpr) (nondetSource, bool) {
	obj := pass.ObjectOf(sel.Sel)
	path := pkgPathOf(obj)
	if path != "math/rand" && path != "math/rand/v2" {
		return nondetSource{}, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fnRecv(fn) != nil || globalRandAllowed[fn.Name()] {
		return nondetSource{}, false
	}
	return nondetSource{
		pos:   sel.Pos(),
		msg:   "rand." + fn.Name() + " uses the unseeded global source; use a seeded *rand.Rand so runs are reproducible",
		short: "rand." + fn.Name() + " (unseeded global source)",
	}, true
}

// mapRangeEmissionSource matches a range over a map whose body calls an
// emitting function: the emission order then follows Go's randomized
// map iteration order.
func mapRangeEmissionSource(pass *Pass, rng *ast.RangeStmt) (nondetSource, bool) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return nondetSource{}, false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nondetSource{}, false
	}
	var src nondetSource
	found := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if name := emitCallName(pass, call); name != "" {
			src = nondetSource{
				pos:   rng.Pos(),
				msg:   "range over map calls " + name + " in its body; map iteration order is randomized — collect keys, sort, then emit",
				short: "map-ordered emission via " + name,
			}
			found = true
			return false // one report per loop is enough
		}
		return true
	})
	return src, found
}

// emitCallName classifies call as order-observable emission and returns
// a display name for it, or "" when the call is harmless. Emission
// means: writing program output (fmt print family, io.Writer-style
// Write methods, json.Encoder.Encode), stepping the simulation
// scheduler (sim.Thread / sim.Engine methods that advance, charge,
// block or spawn), or recording trace state (span.Recorder, core's
// event funnel).
func emitCallName(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	switch path := pkgPathOf(fn); {
	case path == "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return "fmt." + name
		}
	case path == "encoding/json" && name == "Encode":
		return "json.Encoder.Encode"
	case pathHasSuffix(path, "internal/sim"):
		switch name {
		case "Advance", "AdvanceTo", "AdvanceLater", "Sync", "Charge", "Attribute", "Yield",
			"Block", "Unblock", "Spawn", "Run":
			return "sim." + recvQual(fn) + name
		}
	case pathHasSuffix(path, "internal/span"):
		switch name {
		case "Record", "Begin":
			return "span." + recvQual(fn) + name
		}
	case pathHasSuffix(path, "internal/core"):
		if name == "note" {
			return "core.System.note"
		}
	}
	// Writer-style methods regardless of package: emitting through any
	// io.Writer (files, buffers destined for reports) from map order is
	// just as order-revealing.
	if fnRecv(fn) != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return recvQual(fn) + name
		}
	}
	return ""
}

// recvQual returns "Recv." for methods, "" for functions, so messages
// read sim.Thread.Advance rather than sim.Advance.
func recvQual(fn *types.Func) string {
	recv := fnRecv(fn)
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "."
	}
	return ""
}
