package kernel

import (
	"fmt"
	"testing"

	"platinum/internal/core"
	"platinum/internal/sim"
)

func TestAtomicCAS(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("cas", 1, core.Read|core.Write)
	k.Spawn("w", 0, sp, func(th *Thread) {
		if got := th.AtomicCAS(va, 0, 5); got != 0 {
			t.Errorf("first CAS observed %d, want 0", got)
		}
		if got := th.AtomicCAS(va, 0, 9); got != 5 {
			t.Errorf("failed CAS observed %d, want 5", got)
		}
		if v := th.Read(va); v != 5 {
			t.Errorf("value = %d after failed CAS, want 5", v)
		}
		if got := th.AtomicCAS(va, 5, 9); got != 5 {
			t.Errorf("second CAS observed %d", got)
		}
		if v := th.Read(va); v != 9 {
			t.Errorf("value = %d, want 9", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	lock, err := sp.NewSpinLock("lock")
	if err != nil {
		t.Fatal(err)
	}
	// A non-atomic shared counter: without mutual exclusion, the
	// read-modify-write races (two threads reading the same value) lose
	// updates.
	ctr, _ := sp.AllocWords("ctr", 1, core.Read|core.Write)
	const perThread = 30
	const threads = 5
	for p := 0; p < threads; p++ {
		k.Spawn(fmt.Sprintf("w%d", p), p, sp, func(th *Thread) {
			for i := 0; i < perThread; i++ {
				lock.Acquire(th)
				v := th.Read(ctr)
				th.Compute(3 * sim.Microsecond) // widen the race window
				th.Write(ctr, v+1)
				lock.Release(th)
			}
		})
	}
	var final uint32
	k.Spawn("check", 6, sp, func(th *Thread) {
		final = th.WaitAtLeast(ctr, threads*perThread)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if final != threads*perThread {
		t.Fatalf("counter = %d, want %d", final, threads*perThread)
	}
}

func TestSpinLockReleaseWithoutHoldPanics(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	lock, _ := sp.NewSpinLock("l")
	k.Spawn("w", 0, sp, func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("Release without Acquire did not panic")
			}
		}()
		lock.Release(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	const threads = 4
	const gens = 5
	bar, err := sp.NewBarrier("bar", threads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.NewBarrier("bad", 0); err == nil {
		t.Fatal("zero-member barrier accepted")
	}
	// phase[g] counts arrivals in generation g; a barrier bug shows up
	// as a thread reading a stale phase.
	phase, _ := sp.AllocWords("phase", gens, core.Read|core.Write)
	for p := 0; p < threads; p++ {
		k.Spawn(fmt.Sprintf("w%d", p), p, sp, func(th *Thread) {
			for g := 0; g < gens; g++ {
				th.AtomicAdd(phase+int64(g), 1)
				bar.Wait(th)
				// After the barrier, everyone must see all arrivals.
				if v := th.Read(phase + int64(g)); v != threads {
					t.Errorf("gen %d: saw %d arrivals after barrier", g, v)
					return
				}
				bar.Wait(th) // second barrier so writes of g+1 don't race the read
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventCount(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	ec, err := sp.NewEventCount("ec")
	if err != nil {
		t.Fatal(err)
	}
	var sawAt sim.Time
	k.Spawn("waiter", 1, sp, func(th *Thread) {
		ec.Await(th, 3)
		sawAt = th.Now()
		if ec.Read(th) < 3 {
			t.Error("Read below awaited target")
		}
	})
	k.Spawn("adv", 0, sp, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Sleep(2 * sim.Millisecond)
			ec.Advance(th)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt < 6*sim.Millisecond {
		t.Fatalf("waiter released at %v, before the third advance", sawAt)
	}
}

func TestContendedLockPageFreezes(t *testing.T) {
	// A hot lock is the canonical fine-grain write-shared word: under
	// contention its page must end up frozen (§4.2).
	k := boot(t, nil)
	sp := k.NewSpace()
	lock, _ := sp.NewSpinLock("hot-lock")
	for p := 0; p < 6; p++ {
		k.Spawn(fmt.Sprintf("w%d", p), p, sp, func(th *Thread) {
			for i := 0; i < 20; i++ {
				lock.Acquire(th)
				th.Compute(5 * sim.Microsecond)
				lock.Release(th)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	obj, ok := k.Manager().LookupObject("hot-lock")
	if !ok {
		t.Fatal("lock object missing")
	}
	if obj.Cpage(0).Stats.Events[core.EvFreeze] == 0 {
		t.Error("contended lock page never froze")
	}
}
