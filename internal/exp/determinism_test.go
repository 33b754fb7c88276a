package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_tables.json")

// quickDigests holds the SHA-256 digest of every experiment's quick
// table as rendered by Table.WriteTo, keyed by experiment id.
const quickDigests = "testdata/quick_tables.json"

// warmIDs are the experiments the digest gate re-runs one simulation at
// a time on the platform pool the full pass left warm: the paper's
// figures plus the policy and basic-operation sweeps.
var warmIDs = []string{"fig1", "fig5", "fig6", "policy-ablation", "basic-ops"}

// TestAllExperimentsRunQuick is the experiment digest gate. Every
// rendered quick table must match its committed digest, so a change to
// any simulated result, in any mode, fails here; a change meant to
// alter results rewrites the file with -update and says so.
//
// Pass A runs all experiments with 8 simulations in flight. It is the
// first test in the package, so it starts on a cold platform pool:
// every platform is a fresh boot until a run releases one. Pass B
// re-runs warmIDs serially, on reset platforms the pool kept from pass
// A, against the same digests. Together they cover the scheduler fast
// path, parallel and serial harness runs, and fresh and reused
// platforms. Pass B also runs under -short.
func TestAllExperimentsRunQuick(t *testing.T) {
	want := map[string]string{}
	if *update {
		if testing.Short() {
			t.Fatal("-update rewrites every digest; run without -short")
		}
	} else {
		b, err := os.ReadFile(quickDigests)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", quickDigests, err)
		}
	}
	gate := func(t *testing.T, e Experiment, o Options, record bool) {
		tab, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tab.ID != e.ID {
			t.Errorf("table id %q != experiment id %q", tab.ID, e.ID)
		}
		if len(tab.Rows) == 0 {
			t.Error("no rows")
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("row %v has %d cells, header has %d", row, len(row), len(tab.Header))
			}
		}
		var sb strings.Builder
		if _, err := tab.WriteTo(&sb); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		got := hex.EncodeToString(sum[:])
		if *update && record {
			want[e.ID] = got
			return
		}
		if got != want[e.ID] {
			t.Errorf("%s table digest %.12s, committed %.12s; rerun with -update only if the change is meant to alter simulated results. Table:\n%s",
				e.ID, got, want[e.ID], sb.String())
		}
	}

	if !testing.Short() {
		for _, e := range All() {
			t.Run(e.ID, func(t *testing.T) {
				gate(t, e, Options{Quick: true, Parallelism: 8}, true)
			})
		}
		for id := range want {
			if _, ok := Find(id); !ok {
				t.Errorf("%s: digest for unregistered experiment %q", quickDigests, id)
			}
		}
		if *update {
			b, err := json.MarshalIndent(want, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(quickDigests, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("warm", func(t *testing.T) {
		for _, id := range warmIDs {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			t.Run(id, func(t *testing.T) {
				gate(t, e, Options{Quick: true, Parallelism: 1}, false)
			})
		}
	})
}

// TestForEachOrderAndErrors checks the worker pool runs every job and
// reports the lowest-index error regardless of completion order.
func TestForEachOrderAndErrors(t *testing.T) {
	o := Options{Parallelism: 4}
	ran := make([]bool, 100)
	if err := forEach(o, len(ran), func(i int) error { ran[i] = true; return nil }); err != nil {
		t.Fatalf("forEach: %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("job %d never ran", i)
		}
	}

	first := forEach(o, 10, func(i int) error {
		if i == 3 || i == 7 {
			return &jobErr{i}
		}
		return nil
	})
	je, ok := first.(*jobErr)
	if !ok || je.i != 3 {
		t.Fatalf("forEach error = %v, want job 3's error", first)
	}
}

type jobErr struct{ i int }

func (e *jobErr) Error() string { return "job failed" }

// TestTableWideRow checks WriteTo handles rows wider than the header
// (regression: it used to index widths out of range).
func TestTableWideRow(t *testing.T) {
	tab := &Table{
		ID:     "wide",
		Title:  "wide row",
		Header: []string{"a", "b"},
		Rows: [][]string{
			{"1", "2", "3", "4"},
			{"5"},
		},
	}
	var b strings.Builder
	if _, err := tab.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	out := b.String()
	for _, want := range []string{"3", "4", "5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing cell %q:\n%s", want, out)
		}
	}
}
