package exp

import "testing"

func TestRegistry(t *testing.T) {
	want := []string{
		"app-suite", "basic-ops", "blockxfer-concurrency",
		"colocate-options", "fig1", "fig5", "fig6", "freeze-anecdote",
		"gauss-compare", "machine-generations", "page-size-sweep",
		"policy-ablation", "pt-variants", "repl-source", "scaling", "t1-sweep",
		"table1", "table1-empirical", "topo-custom", "topo-nodes",
		"topo-skew", "topo-tiers",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Paper == "" {
			t.Errorf("%s: empty paper reference", e.ID)
		}
	}
	if _, ok := Find("fig1"); !ok {
		t.Error("Find(fig1) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}
