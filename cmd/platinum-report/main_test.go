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

// TestChromeExportParses checks that a -spans export carries every
// event phase the viewer needs: complete spans (X), track metadata (M)
// and async fault flows (b/e).
func TestChromeExportParses(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "trace.json")
	if _, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-spans", tr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	raw, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid Chrome trace JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
	}
	if phases["X"] == 0 || phases["M"] == 0 || phases["b"]+phases["e"] == 0 {
		t.Errorf("export missing event phases: %v", phases)
	}
}

// TestValidateApps runs every supported application through -spans,
// whose export first checks nesting and exact Account reconciliation.
func TestValidateApps(t *testing.T) {
	for _, app := range []string{"gauss", "mergesort", "backprop"} {
		tr := filepath.Join(t.TempDir(), app+".json")
		if _, code := runCmd(t, "-app", app, "-n", "32", "-procs", "4", "-spans", tr); code != 0 {
			t.Errorf("%s: exit code %d", app, code)
		}
	}
}

func TestTextDump(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "spans.txt")
	if _, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-spans", tr, "-text"); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	got, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault", "dir-lookup", "block-transfer", "page="} {
		if !strings.Contains(string(got), want) {
			t.Errorf("text dump missing %q:\n%.2000s", want, got)
		}
	}
}

// TestCountersGolden pins the -series counter-track export
// byte-for-byte: the run is deterministic, so any diff means the
// simulated timing, the series bucketing, or the export format changed.
func TestCountersGolden(t *testing.T) {
	capture := func() []byte {
		t.Helper()
		tr := filepath.Join(t.TempDir(), "trace.json")
		if _, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2",
			"-series", "1ms", "-spans", tr); code != 0 {
			t.Fatalf("exit code %d", code)
		}
		raw, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	raw := capture()

	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid Chrome trace JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" {
			names[ev.Name]++
			if _, ok := ev.Args["value"]; !ok {
				t.Fatalf("counter event %q has no value arg", ev.Name)
			}
		}
	}
	for _, want := range []string{"faults/window", "remote-frac", "fault-frac"} {
		if names[want] == 0 {
			t.Errorf("no counter events for track %q (have %v)", want, names)
		}
	}
	checkGolden(t, "gauss_counters.golden.json", raw)

	// Determinism: a second identical run must reproduce the export
	// byte-for-byte.
	if again := capture(); !bytes.Equal(raw, again) {
		t.Error("two identical -series runs produced different exports")
	}
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

// TestTimelineUsageErrors checks that a timeline the run could not
// write, a negative flag value, or -text without -spans is a usage
// error (exit 2, a message, no output) instead of a silent success.
// OUT in args names the output file that must stay unwritten.
func TestTimelineUsageErrors(t *testing.T) {
	const needTrace = "-timeline requires -trace"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no trace", []string{"-timeline", "OUT"}, needTrace},
		{"zero bucket", []string{"-timeline", "OUT", "-trace", "2000", "-bucket", "0"}, needTrace},
		{"negative bucket", []string{"-timeline", "OUT", "-trace", "2000", "-bucket", "-1ms"}, needTrace},
		{"negative series", []string{"-timeline", "OUT", "-trace", "2000", "-series", "-1ms"}, "-series must be positive"},
		{"negative trace", []string{"-trace", "-3"}, "-trace must be positive"},
		{"negative top", []string{"-top", "-1"}, "-top must be positive"},
		{"negative size", []string{"-app", "mergesort", "-n", "-4"}, "-n must not be negative"},
		{"backprop epochs over range", []string{"-app", "backprop", "-n", "5000"}, "must be 1..999"},
		{"mergesort zero words", []string{"-app", "mergesort", "-n", "0"}, "must be at least -procs (2)"},
		{"mergesort fewer words than procs", []string{"-app", "mergesort", "-n", "1"}, "must be at least -procs (2)"},
		{"gauss zero size", []string{"-app", "gauss", "-n", "0"}, "must be at least 1"},
		{"text without spans", []string{"-text"}, "-text requires -spans"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "out")
			args := []string{"-app", "gauss", "-n", "16", "-procs", "2"}
			for _, a := range tc.args {
				if a == "OUT" {
					a = file
				}
				args = append(args, a)
			}
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 2 {
				t.Errorf("exit code %d, want 2", code)
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q does not name the problem", errb.String())
			}
			if out.Len() > 0 {
				t.Errorf("wrote a report despite the usage error:\n%.200s", out.String())
			}
			if _, err := os.Stat(file); !os.IsNotExist(err) {
				t.Errorf("output file written (stat error %v)", err)
			}
		})
	}
}

// TestTimelineRejectsDroppedTrace checks that a trace too small for
// the run fails the timeline export (exit 1, a message naming the drop
// count and -trace) instead of writing a silently partial file.
func TestTimelineRejectsDroppedTrace(t *testing.T) {
	tl := filepath.Join(t.TempDir(), "timeline.jsonl")
	var out, errb bytes.Buffer
	code := run([]string{"-app", "gauss", "-n", "16", "-procs", "2", "-trace", "10", "-timeline", tl, "-json"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if msg := errb.String(); !strings.Contains(msg, "dropped") || !strings.Contains(msg, "-trace") {
		t.Errorf("stderr %q does not name the dropped events and -trace", msg)
	}
	if _, err := os.Stat(tl); !os.IsNotExist(err) {
		t.Errorf("partial timeline written (stat error %v)", err)
	}
}

func TestUnknownAppFails(t *testing.T) {
	_, code := runCmd(t, "-app", "nosuch")
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

// TestSpansUnknownAppFails checks that an unknown app fails before
// -spans writes anything.
func TestSpansUnknownAppFails(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "spans.json")
	if _, code := runCmd(t, "-app", "nosuch", "-spans", tr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if _, err := os.Stat(tr); !os.IsNotExist(err) {
		t.Errorf("span export written (stat error %v)", err)
	}
}
