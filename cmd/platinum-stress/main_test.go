package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors checks that a flag value the harness cannot honour is
// a usage error (exit 2, a message, no run) rather than a silent
// fallback.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"negative duration", []string{"-duration", "-1s"}, "-duration must be positive"},
		{"zero procs", []string{"-procs", "0"}, "Procs = 0"},
		{"zero frames", []string{"-frames", "0"}, "FramesPerModule = 0"},
		{"unknown bug", []string{"-bug", "nosuch", "-ops", "200"}, `Bug = "nosuch"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Errorf("exit code %d, want 2", code)
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q does not name the problem", errb.String())
			}
			if out.Len() > 0 {
				t.Errorf("ran despite the usage error:\n%.200s", out.String())
			}
		})
	}
}

// TestCleanRun drives one short single-seed run end to end.
func TestCleanRun(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-ops", "500"}, &out, &errb); code != 0 {
		t.Fatalf("exit code %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "seed 1") {
		t.Errorf("single run printed no summary:\n%s", out.String())
	}
}
