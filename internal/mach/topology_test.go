package mach

import (
	"math/rand"
	"strings"
	"testing"

	"platinum/internal/sim"
)

// topoTestMachine builds a machine from a topology, failing the test on
// validation errors.
func topoTestMachine(t *testing.T, topo *Topology) *Machine {
	t.Helper()
	m, err := FromTopology(sim.NewEngine(), topo)
	if err != nil {
		t.Fatalf("FromTopology: %v", err)
	}
	return m
}

// TestBuiltinTopologiesAreUniform pins the byte-identity contract: the
// built-in topologies carry exactly the historical Config constants and
// keep the machine on the uniform fast path.
func TestBuiltinTopologiesAreUniform(t *testing.T) {
	if got, want := ButterflyPlus().Base, DefaultConfig(); got != want {
		t.Errorf("ButterflyPlus().Base = %+v, want DefaultConfig %+v", got, want)
	}
	if got, want := Butterfly1().Base, Butterfly1Config(); got != want {
		t.Errorf("Butterfly1().Base = %+v, want Butterfly1Config %+v", got, want)
	}
	for _, topo := range []*Topology{ButterflyPlus(), Butterfly1(), UniformTopology(DefaultConfig())} {
		m := topoTestMachine(t, topo)
		if m.Generalized() {
			t.Errorf("topology %q generalized the machine; must stay on the uniform fast path", topo.Name)
		}
		if d := topo.DistanceMul(0, topo.Nodes()-1); d != DistScale {
			t.Errorf("topology %q DistanceMul = %d, want %d", topo.Name, d, DistScale)
		}
		if tier := topo.TierOf(0); !tier.uniform() {
			t.Errorf("topology %q node 0 tier %+v is not base DRAM", topo.Name, tier)
		}
		if got := m.InterruptDispatchTo(0, topo.Nodes()-1); got != topo.Base.InterruptDispatch {
			t.Errorf("topology %q InterruptDispatchTo = %v, want %v", topo.Name, got, topo.Base.InterruptDispatch)
		}
	}
}

// fourNode returns a valid 4-node topology with an explicit uniform
// distance matrix, for mutation by the rejection tests.
func fourNode() *Topology {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	topo := &Topology{Base: cfg, Distance: make([]int, 16)}
	for i := range topo.Distance {
		topo.Distance[i] = DistScale
	}
	return topo
}

// TestValidateRejects covers every structural rule in Topology.Validate.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
		want string // substring of the expected error
	}{
		{"valid", func(topo *Topology) {}, ""},
		{"wrong matrix size", func(topo *Topology) { topo.Distance = topo.Distance[:15] }, "entries"},
		{"zero diagonal", func(topo *Topology) { topo.Distance[0] = 0 }, "diagonal"},
		{"negative entry", func(topo *Topology) { topo.Distance[1], topo.Distance[4] = -5, -5 }, "positive"},
		{"asymmetric", func(topo *Topology) { topo.Distance[1] = 2000 }, "asymmetric"},
		{"level wrong length", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 0}}}
		}, "assigns 2 nodes"},
		{"level sparse domains", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 0, 2, 2}}}
		}, "dense"},
		{"level negative domain", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 0, -1, 0}}}
		}, "negative domain"},
		{"level domain too large", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 1, 2, 4}}}
		}, "must be <"},
		{"level negative per-word", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 0, 1, 1}, PerWord: -1}}
		}, "negative PerWord"},
		{"tiers wrong length", func(topo *Topology) { topo.Tiers = make([]MemTier, 3) }, "tiers"},
		{"tier negative mul", func(topo *Topology) {
			topo.Tiers = make([]MemTier, 4)
			topo.Tiers[2] = MemTier{Name: "bad", ReadMul: -1}
		}, "negative multiplier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := fourNode()
			tc.mut(topo)
			err := topo.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted an invalid topology, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestValidateRandomMatrices is the property test behind the symmetry
// rule: any positive symmetric matrix validates, and corrupting one
// off-diagonal entry (breaking symmetry) must be rejected.
func TestValidateRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(7)
		cfg := DefaultConfig()
		cfg.Nodes = n
		topo := &Topology{Base: cfg, Distance: make([]int, n*n)}
		for i := 0; i < n; i++ {
			topo.Distance[i*n+i] = DistScale
			for j := i + 1; j < n; j++ {
				d := 1 + rng.Intn(10_000)
				topo.Distance[i*n+j] = d
				topo.Distance[j*n+i] = d
			}
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("trial %d: symmetric matrix rejected: %v", trial, err)
		}
		i := rng.Intn(n)
		j := rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		topo.Distance[i*n+j] += 1
		if err := topo.Validate(); err == nil {
			t.Fatalf("trial %d: asymmetric matrix (entry %d,%d bumped) accepted", trial, i, j)
		}
	}
}

// clusterTestTopology builds 2 clusters of 2 nodes with inter-cluster
// distance far.
func clusterTestTopology(far int) *Topology {
	topo := fourNode()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i/2 != j/2 {
				topo.Distance[i*4+j] = far
			}
		}
	}
	return topo
}

func TestPlaceOrder(t *testing.T) {
	// Uniform machine: the historical order — self first, then index.
	m := topoTestMachine(t, UniformTopology(DefaultConfig()))
	got := m.PlaceOrder(2)
	if got[0] != 2 || got[1] != 0 || got[2] != 1 || got[3] != 3 {
		t.Errorf("uniform PlaceOrder(2) = %v, want self-then-index order", got)
	}

	// Clustered machine: self, cluster mate, then the far cluster.
	m = topoTestMachine(t, clusterTestTopology(3000))
	if got := m.PlaceOrder(1); got[0] != 1 || got[1] != 0 || got[2] != 2 || got[3] != 3 {
		t.Errorf("clustered PlaceOrder(1) = %v, want [1 0 2 3]", got)
	}

	// Tiered machine: at equal distance, DRAM beats the slow tier.
	topo := fourNode()
	topo.Tiers = []MemTier{{}, {Name: "nvm", ReadMul: 3000}, {}, {}}
	m = topoTestMachine(t, topo)
	if got := m.PlaceOrder(0); got[0] != 0 || got[1] != 2 || got[2] != 3 || got[3] != 1 {
		t.Errorf("tiered PlaceOrder(0) = %v, want NVM node last", got)
	}
}

func TestInterruptDispatchScaling(t *testing.T) {
	topo := clusterTestTopology(4000)
	m := topoTestMachine(t, topo)
	base := topo.Base.InterruptDispatch
	if got := m.InterruptDispatchTo(0, 1); got != base {
		t.Errorf("near dispatch = %v, want base %v", got, base)
	}
	if got, want := m.InterruptDispatchTo(0, 3), base*4; got != want {
		t.Errorf("far dispatch = %v, want %v", got, want)
	}
}

// TestParseTopology exercises the JSON loader: each shorthand expands
// correctly and every malformed input is rejected.
func TestParseTopology(t *testing.T) {
	t.Run("clusters", func(t *testing.T) {
		topo, err := ParseTopology([]byte(`{
			"name": "c", "nodes": 4, "page_words": 256,
			"distance": {"kind": "clusters", "cluster_size": 2, "far": 3000},
			"switch_levels": [{"cluster_size": 2, "per_word_ns": 50}]
		}`))
		if err != nil {
			t.Fatalf("ParseTopology: %v", err)
		}
		if topo.Nodes() != 4 || topo.Base.PageWords != 256 {
			t.Errorf("base = %+v, want 4 nodes, 256-word pages", topo.Base)
		}
		if got := topo.DistanceMul(0, 1); got != DistScale {
			t.Errorf("intra-cluster distance = %d, want %d", got, DistScale)
		}
		if got := topo.DistanceMul(0, 2); got != 3000 {
			t.Errorf("inter-cluster distance = %d, want 3000", got)
		}
		if len(topo.Levels) != 1 || topo.Levels[0].PerWord != 50*sim.Nanosecond {
			t.Errorf("levels = %+v, want one 50 ns level", topo.Levels)
		}
		if want := []int{0, 0, 1, 1}; len(topo.Levels) == 1 {
			for i, d := range topo.Levels[0].Domain {
				if d != want[i] {
					t.Errorf("domain = %v, want %v", topo.Levels[0].Domain, want)
					break
				}
			}
		}
	})

	t.Run("matrix and tiers", func(t *testing.T) {
		topo, err := ParseTopology([]byte(`{
			"nodes": 2,
			"distance": {"kind": "matrix", "rows": [[1000, 2000], [2000, 1000]]},
			"tiers": [{"name": "nvm", "nodes": [1], "read_mul": 3000, "write_mul": 8000}]
		}`))
		if err != nil {
			t.Fatalf("ParseTopology: %v", err)
		}
		if got := topo.DistanceMul(1, 0); got != 2000 {
			t.Errorf("matrix distance = %d, want 2000", got)
		}
		if tier := topo.TierOf(1); tier.Name != "nvm" || tier.ReadMul != 3000 || tier.WriteMul != 8000 {
			t.Errorf("tier = %+v, want nvm 3000/8000", tier)
		}
		if tier := topo.TierOf(0); !tier.uniform() {
			t.Errorf("unlisted node tier = %+v, want base DRAM", tier)
		}
	})

	t.Run("base presets", func(t *testing.T) {
		topo, err := ParseTopology([]byte(`{"base": "butterfly-1"}`))
		if err != nil {
			t.Fatalf("ParseTopology: %v", err)
		}
		if topo.Base != Butterfly1Config() {
			t.Errorf("base = %+v, want Butterfly1Config", topo.Base)
		}
	})

	bad := []struct {
		name, src, want string
	}{
		{"unknown field", `{"nodse": 4}`, "unknown field"},
		{"trailing data", `{"nodes": 4} {"nodes": 8}`, "trailing data"},
		{"trailing garbage", `{"nodes": 4}, "x"`, "trailing data"},
		{"negative nodes", `{"nodes": -1, "tiers": [{"name": "a", "nodes": [0]}]}`, "nodes = -1"},
		{"too many nodes", `{"nodes": 100000}`, "nodes = 100000"},
		{"huge page", `{"page_words": 16777216}`, "page_words"},
		{"negative latency", `{"latencies_ns": {"atc_reload": -5}}`, "atc_reload"},
		{"huge latency", `{"latencies_ns": {"block_copy_per_word": 9000000000}}`, "block_copy_per_word"},
		{"occupancy over 1000", `{"latencies_ns": {"block_xfer_occupancy_permille": 5000}}`, "permille"},
		{"huge far", `{"nodes": 4, "distance": {"kind": "clusters", "cluster_size": 2, "far": 1000000000}}`, "distance.far"},
		{"huge matrix entry", `{"nodes": 2, "distance": {"kind": "matrix", "rows": [[1000, 999999999], [999999999, 1000]]}}`, "exceeds"},
		{"huge per-word", `{"nodes": 4, "switch_levels": [{"cluster_size": 2, "per_word_ns": 2000000000}]}`, "per_word_ns"},
		{"huge tier multiplier", `{"nodes": 2, "tiers": [{"name": "a", "nodes": [0], "read_mul": 1000000000}]}`, "multiplier exceeds"},
		{"unknown base", `{"base": "hypercube"}`, "unknown base"},
		{"unknown distance kind", `{"distance": {"kind": "torus"}}`, "unknown distance kind"},
		{"clusters without far", `{"nodes": 4, "distance": {"kind": "clusters", "cluster_size": 2}}`, "far"},
		{"cluster size mismatch", `{"nodes": 6, "distance": {"kind": "clusters", "cluster_size": 4, "far": 2000}}`, "does not divide"},
		{"matrix wrong rows", `{"nodes": 3, "distance": {"kind": "matrix", "rows": [[1000]]}}`, "rows"},
		{"asymmetric matrix", `{"nodes": 2, "distance": {"kind": "matrix", "rows": [[1000, 2000], [3000, 1000]]}}`, "asymmetric"},
		{"zero diagonal", `{"nodes": 2, "distance": {"kind": "matrix", "rows": [[0, 2000], [2000, 0]]}}`, "diagonal"},
		{"level both selectors", `{"nodes": 4, "switch_levels": [{"cluster_size": 2, "domain_of": [0, 0, 1, 1]}]}`, "both"},
		{"level no selector", `{"nodes": 4, "switch_levels": [{"per_word_ns": 10}]}`, "needs cluster_size or domain_of"},
		{"tier overlap", `{"nodes": 2, "tiers": [{"name": "a", "nodes": [0]}, {"name": "b", "nodes": [0]}]}`, "two tiers"},
		{"tier node out of range", `{"nodes": 2, "tiers": [{"name": "a", "nodes": [7]}]}`, "machine has"},
		{"tier empty", `{"nodes": 2, "tiers": [{"name": "a"}]}`, "lists no nodes"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology([]byte(tc.src))
			if err == nil {
				t.Fatalf("ParseTopology accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestLoadExampleTopologies keeps the shipped example files loadable by
// the real loader.
func TestLoadExampleTopologies(t *testing.T) {
	for _, f := range []string{"butterfly-plus.json", "cluster-64.json", "hybrid-nvm.json"} {
		topo, err := LoadTopology("../../examples/topologies/" + f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := FromTopology(sim.NewEngine(), topo); err != nil {
			t.Errorf("%s: FromTopology: %v", f, err)
		}
	}
}
