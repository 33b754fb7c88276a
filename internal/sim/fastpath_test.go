package sim

import (
	"fmt"
	"testing"
)

// traceWorkload runs a mixed workload (advances, yields, block/unblock,
// mid-run spawns, a daemon) and returns the observed dispatch trace.
func traceWorkload(fastPath bool) ([]string, error) {
	e := NewEngine()
	e.SetFastPath(fastPath)
	var trace []string
	note := func(th *Thread) {
		trace = append(trace, fmt.Sprintf("%s@%d/%d", th.Name(), th.Now(), e.Now()))
	}

	var blocked *Thread
	daemon := e.Spawn("daemon", func(th *Thread) {
		for {
			th.Advance(70)
			note(th)
		}
	})
	daemon.SetDaemon(true)
	blocked = e.Spawn("sleeper", func(th *Thread) {
		th.Block()
		note(th)
		th.Advance(5)
		note(th)
	})
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(th *Thread) {
			for j := 0; j < 6; j++ {
				th.Advance(Time(10*i + 13*j))
				note(th)
				if i == 1 && j == 3 {
					blocked.Unblock(th.Now())
				}
				if i == 2 && j == 2 {
					e.Spawn("late", func(lt *Thread) {
						lt.Advance(9)
						note(lt)
					})
				}
				th.Yield()
			}
		})
	}
	err := e.Run()
	return trace, err
}

// TestFastPathDeterminism checks the scheduler fast path is purely an
// execution optimization: the dispatch trace with it on is identical to
// the trace with it off.
func TestFastPathDeterminism(t *testing.T) {
	slow, err := traceWorkload(false)
	if err != nil {
		t.Fatalf("slow path run: %v", err)
	}
	fast, err := traceWorkload(true)
	if err != nil {
		t.Fatalf("fast path run: %v", err)
	}
	if len(slow) != len(fast) {
		t.Fatalf("trace lengths differ: slow %d, fast %d", len(slow), len(fast))
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("traces diverge at step %d: slow %q, fast %q", i, slow[i], fast[i])
		}
	}
}

// TestFastPathStats checks the fast path actually engages: a lone thread
// advancing repeatedly should need no handoffs beyond its own dispatch.
func TestFastPathStats(t *testing.T) {
	e := NewEngine()
	e.SetFastPath(true)
	e.Spawn("solo", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Advance(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	fast, slowSteps := e.Stats()
	if fast < 100 {
		t.Errorf("fastSteps = %d, want >= 100", fast)
	}
	if slowSteps != 1 {
		t.Errorf("slowSteps = %d, want 1 (the initial dispatch)", slowSteps)
	}
}

// TestResetRestoresFastPath checks Reset re-enables a fast path the
// previous run turned off, as NewEngine would have it.
func TestResetRestoresFastPath(t *testing.T) {
	e := NewEngine()
	e.SetFastPath(false)
	solo := func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Advance(10)
		}
	}
	e.Spawn("solo", solo)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fast, _ := e.Stats(); fast != 0 {
		t.Errorf("fastSteps = %d with the fast path off, want 0", fast)
	}
	e.Reset()
	e.Spawn("solo", solo)
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if fast, _ := e.Stats(); fast < 10 {
		t.Errorf("fastSteps = %d after Reset, want >= 10", fast)
	}
}

// TestPushReadyNoDuplicate checks a thread already resident in the ready
// heap is not enqueued twice: its position is fixed up instead, and the
// non-daemon ready count stays consistent.
func TestPushReadyNoDuplicate(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", func(*Thread) {})
	b := e.Spawn("b", func(*Thread) {})
	if got := e.ready.len(); got != 2 {
		t.Fatalf("heap len after two spawns = %d, want 2", got)
	}
	if e.readyND != 2 {
		t.Fatalf("readyND = %d, want 2", e.readyND)
	}

	// Re-pushing a resident thread must not grow the heap or the count.
	e.pushReady(a)
	e.pushReady(b)
	e.pushReady(a)
	if got := e.ready.len(); got != 2 {
		t.Fatalf("heap len after duplicate pushes = %d, want 2", got)
	}
	if e.readyND != 2 {
		t.Fatalf("readyND after duplicate pushes = %d, want 2", e.readyND)
	}

	// A duplicate push with a changed clock re-sorts in place.
	a.clock, b.clock = 100, 50
	e.pushReady(a)
	e.pushReady(b)
	if top := e.ready.peek(); top != b {
		t.Fatalf("heap top = %q, want %q after clock change", top.name, b.name)
	}
	if e.ready.len() != 2 {
		t.Fatalf("heap len after fix-up pushes = %d, want 2", e.ready.len())
	}

	// The threads must each still be dispatched exactly once.
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, slowSteps := e.Stats()
	if slowSteps != 2 {
		t.Errorf("slowSteps = %d, want 2 (one dispatch per thread)", slowSteps)
	}
}

// TestReplaceTop checks the fused handoff's heap primitive matches
// push-then-pop when the incoming key orders after the minimum.
func TestReplaceTop(t *testing.T) {
	e := NewEngine()
	threads := make([]*Thread, 5)
	for i := range threads {
		threads[i] = &Thread{id: i, clock: Time(10 * (i + 1)), heapIdx: -1}
	}
	for _, th := range threads[:4] {
		e.ready.push(th)
	}
	incoming := threads[4] // clock 50, orders after every resident thread
	got := e.ready.replaceTop(incoming)
	if got != threads[0] {
		t.Fatalf("replaceTop returned id %d, want id 0", got.id)
	}
	if got.heapIdx != -1 {
		t.Fatalf("popped thread heapIdx = %d, want -1", got.heapIdx)
	}
	want := []Time{20, 30, 40, 50}
	for _, w := range want {
		th := e.ready.pop()
		if th == nil || th.clock != w {
			t.Fatalf("pop clock = %v, want %v", th.clock, w)
		}
	}
	if e.ready.len() != 0 {
		t.Fatalf("heap not empty after draining")
	}
}
