package mach_test

import (
	"testing"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
)

// FuzzParseTopology feeds arbitrary bytes to the topology loader. It
// must never panic, and any topology it accepts must describe a machine
// the simulator can run: it boots a kernel and runs a 2-round TopoMix
// whose cost accounts conserve. The seed corpus (testdata/fuzz) holds
// the repository's example topology files.
//
//	go test ./internal/mach -run '^$' -fuzz FuzzParseTopology -fuzztime 30s
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := mach.ParseTopology(data)
		if err != nil {
			return
		}
		kcfg := kernel.DefaultConfig()
		kcfg.Topology = topo
		kcfg.Core.FramesPerModule = 32 // TopoMix touches a few pages per module
		pl, err := apps.NewPlatinumPlatform(kcfg)
		if err != nil {
			t.Fatalf("accepted topology does not boot: %v\n%s", err, data)
		}
		cfg := apps.DefaultTopoMixConfig(min(topo.Nodes(), 4), topo.Base.PageWords)
		cfg.Rounds = 2
		if _, err := apps.RunTopoMix(pl, cfg); err != nil {
			t.Fatalf("TopoMix on an accepted topology: %v\n%s", err, data)
		}
		if err := metrics.CheckConservation(pl.K.NodeAccounts()); err != nil {
			t.Fatalf("accepted topology breaks cost conservation: %v\n%s", err, data)
		}
	})
}
