package platinum_test

import (
	"fmt"
	"log"

	"platinum"
)

// Boot a machine, share memory between processors, and observe that the
// consumer reads what the producer wrote — replication, faults and all
// timing happen transparently underneath.
func ExampleBoot() {
	k, err := platinum.Boot(platinum.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sp := k.NewSpace()
	data, _ := sp.AllocWords("data", 64, platinum.Read|platinum.Write)
	flag, _ := sp.AllocWords("flag", 1, platinum.Read|platinum.Write)

	k.Spawn("producer", 0, sp, func(t *platinum.Thread) {
		t.Write(data, 1989)
		t.Write(flag, 1)
	})
	k.Spawn("consumer", 7, sp, func(t *platinum.Thread) {
		t.WaitAtLeast(flag, 1)
		fmt.Println("consumer read:", t.Read(data))
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	// Output: consumer read: 1989
}

// Fine-grain write sharing makes the kernel freeze the page: both
// processors then use remote references instead of fighting over it.
func ExampleKernel_report() {
	k, err := platinum.Boot(platinum.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sp := k.NewSpace()
	hot, _ := sp.AllocWords("hot", 1, platinum.Read|platinum.Write)
	for p := 0; p < 4; p++ {
		k.Spawn("inc", p, sp, func(t *platinum.Thread) {
			for i := 0; i < 50; i++ {
				t.AtomicAdd(hot, 1)
			}
		})
	}
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	for _, pg := range k.Report().Pages {
		if pg.Label == "hot[0]" {
			fmt.Println("hot page frozen:", pg.Frozen)
			fmt.Println("freezes:", pg.Freezes)
		}
	}
	// Output:
	// hot page frozen: true
	// freezes: 1
}

// Run one of the paper's applications and cross-check its result
// against a sequential reference computation.
func ExampleRunGaussPlatinum() {
	pl, err := platinum.NewPlatinumPlatform(platinum.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := platinum.DefaultGaussConfig(24, 4)
	res, err := platinum.RunGaussPlatinum(pl, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches reference:", res.Checksum == platinum.GaussReferenceChecksum(cfg))
	// Output: matches reference: true
}

// Policies are pluggable: static placement (never-cache) leaves the
// page where it was first touched, so a remote reader never gets a
// local replica.
func ExampleNeverCache() {
	cfg := platinum.DefaultConfig()
	cfg.Core.Policy = platinum.NeverCache()
	k, err := platinum.Boot(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sp := k.NewSpace()
	va, _ := sp.AllocWords("stay", 1, platinum.Read|platinum.Write)
	k.Spawn("w", 0, sp, func(t *platinum.Thread) {
		t.Write(va, 1)
		t.Sim().Advance(3 * platinum.DefaultT1)
		t.Read(va)
	})
	k.Spawn("r", 9, sp, func(t *platinum.Thread) {
		t.Sim().Advance(3 * platinum.DefaultT1)
		t.WaitAtLeast(va, 1)
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	obj, _ := k.Manager().LookupObject("stay")
	fmt.Println("copies:", len(obj.Cpage(0).Copies()))
	fmt.Println("replications:", obj.Cpage(0).Stats.Events[platinum.EvReplication])
	// Output:
	// copies: 1
	// replications: 0
}
