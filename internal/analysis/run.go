package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic after suppression processing, with a
// human-readable position. It is the JSON schema of platinum-vet.
type Finding struct {
	Analyzer   string `json:"analyzer"` // short name, e.g. "chargecause"
	File       string `json:"file"`     // path as recorded by the loader
	Line       int    `json:"line"`     // 1-based
	Col        int    `json:"col"`      // 1-based
	Message    string `json:"message"`  //
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"` // the //lint:ignore justification
}

// Pos formats the finding's position as file:line:col.
func (f Finding) Pos() string { return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col) }

// Result is the outcome of running a suite of analyzers over a set of
// packages.
type Result struct {
	Findings   []Finding `json:"findings"`    // active findings, position-sorted
	Suppressed []Finding `json:"suppressed"`  // findings silenced by //lint:ignore
	BadIgnores []Finding `json:"bad_ignores"` // malformed //lint:ignore directives
}

// Failed reports whether the result should fail the build: any active
// finding or malformed suppression does.
func (r *Result) Failed() bool { return len(r.Findings) > 0 || len(r.BadIgnores) > 0 }

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int // line the directive applies to (its own, or the next)
	analyzers []string
	reason    string
	used      bool
	pos       token.Position
	malformed string // non-empty: why the directive is invalid
}

// Run executes every analyzer over every package, applies suppression
// directives, and returns position-sorted findings. All given packages
// are both analyzed and reported; use RunScoped to analyze a larger
// dependency closure while reporting a subset.
func Run(analyzers []*Analyzer, pkgs []*Package) (*Result, error) {
	return RunScoped(analyzers, pkgs, nil)
}

// RunScoped is the fact-aware scheduler. It analyzes every package in
// pkgs — which should be the full local dependency closure of the
// packages of interest, so cross-package facts exist before they are
// consumed — but reports findings, suppressions and stale directives
// only for packages whose import path is in report (nil = all).
//
// Scheduling is deterministic: packages run in import-dependency order
// (dependencies first, registration order breaking ties), analyzers run
// per package in Requires order (producers before consumers, given
// order breaking ties), and analyzers listed in Requires but missing
// from the given set are auto-included. Findings are sorted by file,
// line, column, analyzer.
func RunScoped(analyzers []*Analyzer, pkgs []*Package, report map[string]bool) (*Result, error) {
	analyzers, err := scheduleAnalyzers(analyzers)
	if err != nil {
		return nil, err
	}
	pkgs = sortPackagesByDeps(pkgs)

	var diags []Diagnostic
	st := newRunState(pkgs, report, &diags)
	// Scan every package's suppression directives up front:
	// fact-producing passes consult them (Pass.IsSuppressed) even in
	// packages outside the report scope.
	for _, pkg := range pkgs {
		st.directives = append(st.directives, scanIgnores(pkg.Fset, pkg.Files)...)
	}
	for _, pkg := range pkgs {
		st.indexMethods(pkg)
		for _, an := range analyzers {
			pass := &Pass{
				Analyzer: an,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				state:    st,
				diags:    &diags,
			}
			if err := an.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", an.Name, pkg.Path, err)
			}
		}
	}

	inScope := func(file string) bool {
		if report == nil {
			return true
		}
		return report[st.fileOf[file]]
	}
	res := &Result{}
	for _, dir := range st.directives {
		if dir.malformed != "" && inScope(dir.file) {
			res.BadIgnores = append(res.BadIgnores, Finding{
				Analyzer: "lint",
				File:     dir.pos.Filename,
				Line:     dir.pos.Line,
				Col:      dir.pos.Column,
				Message:  dir.malformed,
			})
		}
	}
	for _, d := range diags {
		pos := st.fset.Position(d.Pos)
		if !inScope(pos.Filename) {
			continue
		}
		f := Finding{
			Analyzer: d.Analyzer,
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  d.Message,
		}
		if dir := matchIgnore(st.directives, f); dir != nil {
			dir.used = true
			f.Suppressed = true
			f.Reason = dir.reason
			res.Suppressed = append(res.Suppressed, f)
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	res.BadIgnores = append(res.BadIgnores, staleDirectives(st.directives, analyzers, inScope)...)
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	sortFindings(res.BadIgnores)
	return res, nil
}

// staleDirectives flags well-formed //lint:ignore directives that
// suppressed nothing. A suppression is a claim about a finding on its
// line; once the finding is gone the directive is dead weight that
// silently licenses a future regression, so it fails the run like a
// malformed one. A directive is only judged when every analyzer it
// names actually ran (a chargecause-only fixture run must not declare
// a hotalloc directive stale) and when its package is in the report
// scope.
func staleDirectives(dirs []*ignoreDirective, ran []*Analyzer, inScope func(string) bool) []Finding {
	byName := map[string]bool{}
	for _, an := range ran {
		byName[an.Name] = true
	}
	var out []Finding
	for _, d := range dirs {
		if d.malformed != "" || d.used || !inScope(d.file) {
			continue
		}
		all := true
		for _, name := range d.analyzers {
			if !byName[name] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		out = append(out, Finding{
			Analyzer: "lint",
			File:     d.pos.Filename,
			Line:     d.pos.Line,
			Col:      d.pos.Column,
			Message: fmt.Sprintf("stale //lint:ignore platinum/%s: it suppresses no finding — remove it (reason was: %s)",
				strings.Join(d.analyzers, ",platinum/"), d.reason),
		})
	}
	return out
}

// scheduleAnalyzers expands the given analyzers with the closure of
// their Requires and orders them so every producer runs before its
// consumers, preserving the given order among independent analyzers. A
// Requires cycle is an error.
func scheduleAnalyzers(given []*Analyzer) ([]*Analyzer, error) {
	var out []*Analyzer
	state := map[*Analyzer]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(an *Analyzer) error
	visit = func(an *Analyzer) error {
		switch state[an] {
		case 1:
			return fmt.Errorf("analyzer dependency cycle through %s", an.Name)
		case 2:
			return nil
		}
		state[an] = 1
		for _, req := range an.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		state[an] = 2
		out = append(out, an)
		return nil
	}
	for _, an := range given {
		if err := visit(an); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortPackagesByDeps orders pkgs so every package follows the packages
// it imports (among those given), preserving the given order among
// unrelated packages.
func sortPackagesByDeps(pkgs []*Package) []*Package {
	byTypes := map[*types.Package]*Package{}
	for _, p := range pkgs {
		byTypes[p.Types] = p
	}
	var out []*Package
	state := map[*Package]int{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return // visiting (impossible cycle in Go imports) or done
		}
		state[p] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byTypes[imp]; ok {
				visit(dep)
			}
		}
		state[p] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// scanIgnores extracts //lint:ignore directives from the files'
// comments. A directive written alone on a line applies to the next
// line; a trailing directive applies to its own line. The expected form
// is
//
//	//lint:ignore platinum/<name>[,platinum/<name>...] reason
//
// A directive with no platinum/ analyzer or no reason is recorded as
// malformed (and fails the run) rather than being ignored silently.
func scanIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				dir := &ignoreDirective{pos: pos, file: pos.Filename}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					dir.malformed = "malformed //lint:ignore: want \"//lint:ignore platinum/<analyzer> reason\""
				} else {
					for _, name := range strings.Split(fields[0], ",") {
						short, ok := strings.CutPrefix(name, "platinum/")
						if !ok || short == "" {
							dir.malformed = fmt.Sprintf("//lint:ignore names %q: analyzers must be written platinum/<name>", name)
							break
						}
						dir.analyzers = append(dir.analyzers, short)
					}
					dir.reason = strings.Join(fields[1:], " ")
				}
				// Trailing comment → same line; otherwise next line.
				dir.line = pos.Line
				if trailing := lineHasCodeBefore(fset, f, c); !trailing {
					dir.line = pos.Line + 1
				}
				out = append(out, dir)
			}
		}
	}
	return out
}

// lineHasCodeBefore reports whether any node of f starts on the
// comment's line before the comment itself — i.e. the comment trails
// code rather than standing alone.
func lineHasCodeBefore(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return false
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return false
		}
		p := fset.Position(n.Pos())
		if p.Line == cpos.Line && n.Pos() < c.Pos() {
			found = true
			return false
		}
		return true
	})
	return found
}

// matchIgnore returns the directive suppressing f, if any.
func matchIgnore(dirs []*ignoreDirective, f Finding) *ignoreDirective {
	for _, d := range dirs {
		if d.malformed != "" || d.file != f.File || d.line != f.Line {
			continue
		}
		for _, name := range d.analyzers {
			if name == f.Analyzer {
				return d
			}
		}
	}
	return nil
}

// sortFindings orders findings by file, line, column, analyzer,
// message — a stable order independent of analyzer execution order.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// RelativeTo rewrites every finding's file path relative to dir where
// possible, for compact file:line output.
func (r *Result) RelativeTo(dir string) {
	rel := func(fs []Finding) {
		for i := range fs {
			if p, err := filepath.Rel(dir, fs[i].File); err == nil && !strings.HasPrefix(p, "..") {
				fs[i].File = p
			}
		}
	}
	rel(r.Findings)
	rel(r.Suppressed)
	rel(r.BadIgnores)
}
