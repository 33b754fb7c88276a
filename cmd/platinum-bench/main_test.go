package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// runCmd drives the CLI with args and returns stdout, stderr, and the
// exit code.
func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListExperiments(t *testing.T) {
	out, errs, code := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errs)
	}
	for _, id := range []string{"fig1", "fig5", "table1"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

// TestUnknownExperimentFails checks that an argument the command cannot
// honour is a usage error (exit 2, a message, no run) rather than a
// silent fallback.
func TestUnknownExperimentFails(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "nosuch"}, `unknown experiment "nosuch"`},
		{[]string{"-quick", "-exp", "fig1", "-j", "-3"}, "-j must be positive"},
	} {
		out, errs, code := runCmd(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2", tc.args, code)
		}
		if !strings.Contains(errs, tc.want) {
			t.Errorf("%v: stderr %q does not name the problem", tc.args, errs)
		}
		if out != "" {
			t.Errorf("%v: ran despite the usage error:\n%.200s", tc.args, out)
		}
	}
}

// TestOutputIdenticalAcrossJ pins the determinism contract the -status
// monitor depends on: tables are byte-identical at any -j, so the
// progress counters are pure observation.
func TestOutputIdenticalAcrossJ(t *testing.T) {
	out1, errs, code := runCmd(t, "-quick", "-exp", "fig1", "-j", "1", "-json")
	if code != 0 {
		t.Fatalf("-j 1 exit code %d: %s", code, errs)
	}
	out8, errs, code := runCmd(t, "-quick", "-exp", "fig1", "-j", "8", "-json")
	if code != 0 {
		t.Fatalf("-j 8 exit code %d: %s", code, errs)
	}
	// wall_seconds is the one intentionally nondeterministic field.
	strip := func(s string) string {
		var doc map[string]any
		if err := json.Unmarshal([]byte(s), &doc); err != nil {
			t.Fatalf("-json output invalid: %v", err)
		}
		delete(doc, "wall_seconds")
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if strip(out1) != strip(out8) {
		t.Errorf("-j 1 and -j 8 tables differ:\n%s\nvs:\n%s", out1, out8)
	}
}

// TestStatusEndpoint runs a small sweep with the monitor attached at
// -j 4 and checks both endpoints: once from the listen hook, before the
// sweep starts, and once after it completes (the server goroutine
// outlives run()) to verify the final counts balance. Reads that
// overlap a live sweep are internal/exp's TestProgressMidSweep.
func TestStatusEndpoint(t *testing.T) {
	var addr string
	statusHook = func(a string) {
		addr = a
		// The server must answer while the sweep runs; at hook time the
		// sweep has not started, so counters read zero but both routes
		// must already be live.
		resp, err := http.Get("http://" + a + "/")
		if err != nil {
			t.Errorf("in-run GET /: %v", err)
			return
		}
		defer resp.Body.Close()
		var doc statusDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Errorf("in-run GET /: bad JSON: %v", err)
		}
	}
	defer func() { statusHook = nil }()

	_, errs, code := runCmd(t, "-quick", "-exp", "fig1,table1", "-j", "4",
		"-status", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errs)
	}
	if addr == "" {
		t.Fatal("status hook never received an address")
	}

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("GET /: %v", err)
	}
	var doc statusDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET /: bad JSON: %v", err)
	}
	if doc.ExperimentsTotal != 2 || doc.ExperimentsDone != 2 {
		t.Errorf("experiments done/total = %d/%d, want 2/2", doc.ExperimentsDone, doc.ExperimentsTotal)
	}
	if doc.RunsTotal == 0 || doc.RunsDone != doc.RunsTotal {
		t.Errorf("runs done/total = %d/%d, want equal and nonzero", doc.RunsDone, doc.RunsTotal)
	}
	if doc.EtaSeconds != 0 {
		t.Errorf("eta_seconds = %f after completion, want 0", doc.EtaSeconds)
	}

	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE platinum_bench_runs_total gauge",
		fmt.Sprintf("platinum_bench_runs_total %d", doc.RunsTotal),
		fmt.Sprintf("platinum_bench_runs_done %d", doc.RunsDone),
		"platinum_bench_experiments_total 2",
		"platinum_bench_experiments_done 2",
		"platinum_bench_wall_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}
