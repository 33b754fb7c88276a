package apps

// Platform pooling: the experiment harness runs thousands of
// independent simulations, each of which used to boot a fresh kernel —
// rebuilding the engine, physical memory, ATCs and span recorder from
// scratch every run. A finished PLATINUM kernel can instead be Reset in
// place (see kernel.Reset), which retains every buffer and free list
// the previous run grew: reusing one platform per configuration drives
// per-run setup allocations down by an order of magnitude.
//
// Pooling is behaviour-preserving by construction: a reset kernel runs
// any workload bit-for-bit identically to a freshly booted one.
// TestResetMatchesFreshBoot checks that against fresh boots, and the
// experiment digest gate (internal/exp) re-runs tables on a warm pool
// against committed digests.

import (
	"sync"

	"platinum/internal/kernel"
)

// platformPool holds reset PLATINUM platforms keyed by configuration
// key. The mutex only guards the pool itself — acquired platforms are
// exclusively owned until released, so runs proceed without locking.
var platformPool struct {
	mu   sync.Mutex
	free map[string][]*PlatinumPlatform
}

// maxPooledPerKey bounds how many idle platforms one configuration
// retains — enough for every worker of a -j run to hold one, without
// hoarding memory after a wide sweep narrows.
const maxPooledPerKey = 32

// AcquirePlatform returns a PLATINUM platform for the given
// configuration: a pooled one, reset and re-wrapped, when one is free,
// otherwise a freshly booted kernel. The key must uniquely identify
// cfg — two callers using the same key with different configs would
// share pools and corrupt each other's timings — so callers encode
// every varying parameter (page words, source selection, policy, ...)
// into it. Release the platform with ReleasePlatform after a successful
// run so the next acquisition can reuse it.
func AcquirePlatform(key string, cfg kernel.Config) (*PlatinumPlatform, error) {
	platformPool.mu.Lock()
	var pl *PlatinumPlatform
	if free := platformPool.free[key]; len(free) > 0 {
		pl = free[len(free)-1]
		free[len(free)-1] = nil
		platformPool.free[key] = free[:len(free)-1]
	}
	platformPool.mu.Unlock()
	if pl != nil {
		pl.Reset()
		return pl, nil
	}
	return NewPlatinumPlatform(cfg)
}

// ReleasePlatform returns a platform acquired with AcquirePlatform to
// the pool under the same key. Call it only after a successful run: a
// platform whose run failed mid-way may hold threads the engine cannot
// Reset past, so error paths simply drop the platform. A release past
// the per-key bound discards the platform.
func ReleasePlatform(key string, pl *PlatinumPlatform) {
	if pl == nil {
		return
	}
	platformPool.mu.Lock()
	defer platformPool.mu.Unlock()
	if platformPool.free == nil {
		platformPool.free = make(map[string][]*PlatinumPlatform)
	}
	if len(platformPool.free[key]) >= maxPooledPerKey {
		return
	}
	platformPool.free[key] = append(platformPool.free[key], pl)
}

// Reset returns the platform to its just-booted state — the kernel
// resets in place and a fresh (id 0) address space replaces the old one
// — so the next workload runs bit-for-bit as on a new platform. Only
// valid after Run has returned.
func (p *PlatinumPlatform) Reset() {
	p.K.Reset()
	p.Sp = p.K.NewSpace()
}
