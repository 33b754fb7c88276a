package sim

import (
	"runtime"
	"testing"
	"time"
)

// gcUntil runs garbage collections until cond holds, giving queued
// finalizers a chance to run between rounds, and reports whether it
// held within a bounded number of rounds.
func gcUntil(cond func() bool) bool {
	for i := 0; i < 100; i++ {
		runtime.GC()
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestDroppedEnginesFreeStacks checks that an engine dropped without
// Reset does not leak its idle stacks' goroutines: its stack pool's
// finalizer stops them.
func TestDroppedEnginesFreeStacks(t *testing.T) {
	start := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e := NewEngine()
		e.Spawn("live-daemon", func(th *Thread) {
			for {
				th.Advance(7)
			}
		}).SetDaemon(true)
		e.Spawn("blocked-daemon", func(th *Thread) {
			th.Advance(3)
			th.Block()
		}).SetDaemon(true)
		e.Spawn("worker", func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Advance(5)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("engine %d: Run: %v", i, err)
		}
	}
	if !gcUntil(func() bool { return runtime.NumGoroutine() <= start+10 }) {
		t.Fatalf("goroutines: %d after dropping 200 engines, started with %d", runtime.NumGoroutine(), start)
	}
}

// spawnWithFinalizer spawns a thread whose body captures an object with
// a finalizer, and returns a channel closed once that object is freed.
func spawnWithFinalizer(e *Engine) <-chan struct{} {
	type payload struct {
		next *payload
		pad  [8]int
	}
	freed := make(chan struct{})
	obj := &payload{}
	runtime.SetFinalizer(obj, func(*payload) { close(freed) })
	e.Spawn("holder", func(th *Thread) {
		th.Advance(10)
		obj.pad[0]++
	})
	return freed
}

// TestFinishedThreadReleasesBody checks that neither the pooled Thread
// struct nor its pooled stack keeps a finished thread's body alive.
func TestFinishedThreadReleasesBody(t *testing.T) {
	e := NewEngine()
	freed := spawnWithFinalizer(e)
	e.Spawn("peer", func(th *Thread) { th.Advance(5) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Reset()
	ok := gcUntil(func() bool {
		select {
		case <-freed:
			return true
		default:
			return false
		}
	})
	if !ok {
		t.Fatal("the finished thread's body is still reachable after Run, Reset and GC")
	}
	runtime.KeepAlive(e)
}

// TestUnwindEdges checks the two shutdown edges: a thread never
// dispatched never runs its body, and a daemon stopped mid-Advance runs
// its deferred function exactly once, even when that function yields.
// Reset succeeds after each.
func TestUnwindEdges(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("worker", func(th *Thread) {}) // finishes without yielding
	e.Spawn("late", func(th *Thread) { ran = true }).SetDaemon(true)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("a thread never dispatched ran its body at shutdown")
	}
	e.Reset()

	deferred := 0
	e.Spawn("daemon", func(th *Thread) {
		defer func() {
			deferred++
			th.Advance(1) // yields while unwinding
		}()
		for {
			th.Advance(10)
		}
	}).SetDaemon(true)
	e.Spawn("worker", func(th *Thread) { th.Advance(100) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if deferred != 1 {
		t.Errorf("stopped daemon ran its deferred function %d times, want 1", deferred)
	}
	e.Reset()
}

// TestStackSurvivesPanic checks that a thread-body panic leaves its
// pooled stack reusable: after a ThreadPanicError run and a Reset, the
// same engine runs cleanly on the same stacks.
func TestStackSurvivesPanic(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(th *Thread) {
		th.Advance(10)
		panic("fatal trap")
	})
	e.Spawn("other", func(th *Thread) {
		for {
			th.Advance(5)
		}
	})
	var pe *ThreadPanicError
	if err := e.Run(); !errorsAs(err, &pe) {
		t.Fatalf("Run = %v, want ThreadPanicError", err)
	}
	stacks := len(e.stacks.free)
	if stacks != 2 {
		t.Fatalf("%d idle stacks after the panic run, want 2", stacks)
	}
	e.Reset()
	sum := 0
	for i := 0; i < 2; i++ {
		e.Spawn("w", func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Advance(Time(i + 1))
			}
			sum++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if sum != 2 || e.Now() != 20 {
		t.Errorf("after Reset: %d threads finished at %v, want 2 at 20ns", sum, e.Now())
	}
	if got := len(e.stacks.free); got != stacks {
		t.Errorf("%d idle stacks after the clean run, want the %d reused", got, stacks)
	}
}
