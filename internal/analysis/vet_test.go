package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"platinum/internal/analysis"
	"platinum/internal/analysis/analysistest"
)

// fixtures is the GOPATH-style root of the golden fixture tree.
const fixtures = "testdata/src"

func TestNoDeterminism(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerNoDeterminism}, "platinum/internal/exp")
}

func TestChargeCause(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerChargeCause}, "chargecause")
}

func TestNoProtocolPanic(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerNoProtocolPanic}, "platinum/internal/mach")
}

func TestHotAlloc(t *testing.T) {
	res := analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerHotAlloc}, "hotalloc")
	if got := len(res.Suppressed); got != 1 {
		t.Errorf("suppressed findings = %d, want 1 (the warm-up append)", got)
	}
}

// TestDetWalk checks the interprocedural determinism walk: sources
// laundered through a helper package are reported at the frontier call
// site inside the simulation fixture with the full chain — through a
// three-deep static chain, a locally-declared interface, and a closure.
func TestDetWalk(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerDetWalk}, "detwalkfix/internal/sim")
}

// TestHotEscape checks the transitive hot-path allocation gate: marked
// functions with allocation-free bodies are still flagged when a local
// helper or an imported package allocates on their behalf.
func TestHotEscape(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerHotEscape}, "hotescape")
}

// TestStaleSuppression proves the stale-directive contract both ways:
// a well-formed, unused //lint:ignore fails the run when its named
// analyzer ran, and is left unjudged when it did not (the analyzer
// might have found something in a fuller run).
func TestStaleSuppression(t *testing.T) {
	res := analysistest.Run(t, fixtures, analysis.All(), "stalefix")
	if got := len(res.BadIgnores); got != 1 {
		t.Fatalf("stale directives = %d, want 1: %+v", got, res.BadIgnores)
	}
	msg := res.BadIgnores[0].Message
	if !strings.Contains(msg, "stale //lint:ignore platinum/hotalloc") {
		t.Errorf("stale diagnostic does not name the directive: %q", msg)
	}
	if !strings.Contains(msg, "the allocation this once suppressed was removed") {
		t.Errorf("stale diagnostic does not quote the reason: %q", msg)
	}
	if !res.Failed() {
		t.Errorf("a stale suppression must fail the run")
	}

	res = analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerChargeCause}, "stalefix")
	if res.Failed() {
		t.Errorf("directive naming an analyzer that did not run was judged stale: %+v", res.BadIgnores)
	}
}

// TestScopeLimits runs the full suite over a package that is neither a
// simulation nor a protocol package: wall-clock reads, global rand and
// panics there are out of scope and must produce no findings.
func TestScopeLimits(t *testing.T) {
	res := analysistest.Run(t, fixtures, analysis.All(), "outside")
	if res.Failed() {
		t.Errorf("out-of-scope package failed the suite: %+v", res.Findings)
	}
}

// TestSuppression proves the //lint:ignore contract: a well-formed
// directive silences exactly its named analyzer on exactly its line,
// every suppression is counted with its reason, and malformed
// directives fail the run as findings of their own.
func TestSuppression(t *testing.T) {
	res := analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerChargeCause}, "suppress")
	if got := len(res.Suppressed); got != 2 {
		t.Errorf("suppressed findings = %d, want 2", got)
	}
	for _, s := range res.Suppressed {
		if !s.Suppressed || s.Reason == "" {
			t.Errorf("suppressed finding %s is missing its reason", s.Pos())
		}
	}
	if got := len(res.BadIgnores); got != 2 {
		t.Errorf("malformed directives = %d, want 2: %+v", got, res.BadIgnores)
	}
	if !res.Failed() {
		t.Errorf("live findings and malformed directives must fail the run")
	}
}

// TestSuppressionClean proves a fully suppressed package passes while
// the suppression still shows up in the count — visible, never silent.
func TestSuppressionClean(t *testing.T) {
	res := analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerChargeCause}, "suppressclean")
	if res.Failed() {
		t.Errorf("fully suppressed package must pass, got findings: %+v", res.Findings)
	}
	if got := len(res.Suppressed); got != 1 {
		t.Errorf("suppressed findings = %d, want 1", got)
	}
}

// TestRegistry pins the suite's registration invariants: stable order,
// unique non-empty names, and a doc line for platinum-vet -list.
func TestRegistry(t *testing.T) {
	want := []string{
		"nodeterminism", "chargecause", "noprotocolpanic", "hotalloc",
		"detwalk", "hotescape",
	}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, an := range all {
		if an.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, an.Name, want[i])
		}
		if an.Doc == "" || an.Run == nil {
			t.Errorf("analyzer %q is missing its doc or run function", an.Name)
		}
		for _, req := range an.Requires {
			found := false
			for _, prev := range all[:i] {
				if prev == req {
					found = true
				}
			}
			if !found {
				t.Errorf("analyzer %q requires %q, which is not registered before it", an.Name, req.Name)
			}
		}
	}
}

// TestLoaderHonorsBuildConstraints checks that the loader type-checks
// exactly the files this toolchain builds: a file constrained to older
// Go versions is left out, and so is a race-only file.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "guarded")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"new.go":  "//go:build go1.21\n\npackage guarded\n\nconst Engine = 1\n",
		"old.go":  "//go:build !go1.21\n\npackage guarded\n\nvar _ = requiresNewerToolchain\n",
		"race.go": "//go:build race\n\npackage guarded\n\nconst RaceOnly = 1\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := analysis.NewLoader(map[string]string{"": filepath.Dir(dir)}).Load("guarded")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := len(pkgs[0].Files); got != 1 {
		t.Errorf("loaded %d files, want new.go only", got)
	}
	if pkgs[0].Types.Scope().Lookup("RaceOnly") != nil {
		t.Error("race-only file was loaded")
	}
}
