package fold

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"platinum/internal/sim.(*Engine).Run":         "sim",
		"platinum/internal/core.(*System).Touch":      "core",
		"platinum/internal/procset.Set.Has":           "core",
		"platinum/internal/vm.(*Space).Map":           "kernel",
		"platinum/internal/hist.(*H).Record":          "span",
		"runtime.chansend1":                           "runtime",
		"internal/runtime/atomic.(*Uint32).Load":      "runtime",
		"sync.(*Mutex).Lock":                          "runtime",
		"sort.Slice":                                  "other",
		"platinum/perfbench/fold.ByPackage":           "other",
		"gopkg.in/yaml%2ev3.(*parser).parse.func1":    "other",
		"platinum/internal/exp.forEach.func1":         "exp",
		"platinum/internal/apps.runGaussShared.func2": "apps",
	}
	for fn, want := range cases {
		if got := LayerOf(packageOf(fn)); got != want {
			t.Errorf("LayerOf(packageOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

// spin burns CPU in this package for d.
func spin(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink += x
}

// TestSharesOfRealProfile folds a profile of a busy loop: the shares sum
// to 100 and the loop's package dominates.
func TestSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	byPkg, err := ByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range byPkg {
		total += ns
	}
	if total == 0 {
		t.Skip("profile has no samples")
	}
	if share := float64(byPkg["platinum/perfbench/fold"]) / float64(total); share < 0.5 {
		t.Errorf("busy loop's package has %.0f%% of the CPU time, want most; by package: %v", 100*share, byPkg)
	}
	shares := Shares(byPkg)
	var sum float64
	for _, l := range Layers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("layer shares sum to %v, want 100", sum)
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, err := ByPackage([]byte("not a profile")); err == nil {
		t.Error("ByPackage accepted garbage")
	}
}
