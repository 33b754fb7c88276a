package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCmd drives the CLI with args and returns stdout and the exit code.
func runCmd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	if errb.Len() > 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return out.String(), code
}

// checkGolden compares got against the named golden file, rewriting it
// under -update (the same convention as internal/metrics).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// The simulation is deterministic, so every CLI path is pinned
// byte-for-byte against a golden: a diff means either the simulated
// run changed (timing, protocol behaviour) or the output format did.

func TestReportTextGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	checkGolden(t, "gauss_report.golden.txt", []byte(out))
}

func TestReportJSONGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4", "-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	checkGolden(t, "gauss_report.golden.json", []byte(out))
}

func TestHistTextGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4",
		"-hist", "-series", "1ms")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	checkGolden(t, "gauss_hist.golden.txt", []byte(out))
}

func TestHistJSONGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4",
		"-hist", "-series", "1ms", "-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var doc struct {
		SchemaVersion int             `json:"schema_version"`
		Histograms    json.RawMessage `json:"histograms"`
		Series        json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.SchemaVersion != 2 {
		t.Errorf("schema_version = %d, want 2 with telemetry attached", doc.SchemaVersion)
	}
	if len(doc.Histograms) == 0 || len(doc.Series) == 0 {
		t.Error("telemetry sections missing from -hist -series -json output")
	}
	checkGolden(t, "gauss_hist.golden.json", []byte(out))
}

// TestZeroConfigOmitsTelemetry pins the omitempty contract: without
// -hist/-series the JSON document carries neither section and keeps
// schema version 1.
func TestZeroConfigOmitsTelemetry(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4", "-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if strings.Contains(out, "histograms") || strings.Contains(out, "\"series\"") {
		t.Error("telemetry sections present in zero-config output")
	}
	var doc struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != 1 {
		t.Errorf("schema_version = %d, want 1 without telemetry", doc.SchemaVersion)
	}
}

func TestTimelineGolden(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "timeline.jsonl")
	_, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2",
		"-trace", "2000", "-timeline", tl)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	got, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "gauss_timeline.golden.jsonl", got)
}

func TestSpansGolden(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "spans.json")
	out, code := runCmd(t, "-app", "gauss", "-n", "8", "-procs", "2", "-spans", tr)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "spans:") {
		t.Errorf("stdout does not mention the span export:\n%s", out)
	}
	got, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("-spans output is not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("-spans wrote no trace events")
	}
	checkGolden(t, "gauss_spans.golden.json", got)
}

// TestPoolingOutputIdentical is the end-to-end platform-reuse gate: for
// gauss and mergesort, every output mode (-json report, -trace
// timeline, -spans Chrome trace, -hist/-series) must be byte-identical
// across two back-to-back runs. The CLI releases its platform to the
// pool, so the second run always executes on the reset platform the
// first one released.
func TestPoolingOutputIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, app := range []string{"gauss", "mergesort"} {
		// Small sizes keep the two-runs-per-mode matrix fast.
		base := []string{"-app", app, "-n", "16", "-procs", "2"}
		if app == "mergesort" {
			base = []string{"-app", app, "-n", "256", "-procs", "2"}
		}
		modes := []struct {
			name string
			args []string // appended to base; FILE is replaced per mode
			file string   // side-channel output to compare, "" for stdout only
		}{
			{"json", []string{"-json"}, ""},
			{"timeline", []string{"-trace", "2000", "-timeline", "FILE"}, filepath.Join(dir, app+"_timeline.jsonl")},
			{"spans", []string{"-spans", "FILE"}, filepath.Join(dir, app+"_spans.json")},
			{"hist", []string{"-hist", "-series", "1ms", "-json"}, ""},
		}
		for _, m := range modes {
			args := append(append([]string{}, base...), m.args...)
			for i, a := range args {
				if a == "FILE" {
					args[i] = m.file
				}
			}
			// capture runs the CLI once and returns stdout plus the
			// side-channel file (same path every run, so stdout that
			// echoes it stays comparable).
			capture := func() string {
				t.Helper()
				out, code := runCmd(t, args...)
				if code != 0 {
					t.Fatalf("%s/%s: exit code %d", app, m.name, code)
				}
				if m.file != "" {
					got, err := os.ReadFile(m.file)
					if err != nil {
						t.Fatal(err)
					}
					out += "\n--file--\n" + string(got)
				}
				return out
			}
			first := capture()
			second := capture() // on the platform first released
			if second != first {
				t.Errorf("%s/%s: reused-platform output differs from the previous run", app, m.name)
			}
		}
	}
}

func TestSpansRejectsAnecdote(t *testing.T) {
	_, code := runCmd(t, "-app", "anecdote", "-spans", filepath.Join(t.TempDir(), "x.json"))
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestHistRejectsAnecdote(t *testing.T) {
	_, code := runCmd(t, "-app", "anecdote", "-hist")
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestUnknownAppFails(t *testing.T) {
	_, code := runCmd(t, "-app", "nosuch")
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}
