package sim

import (
	"fmt"
	"testing"
)

// traceWorkload runs a mixed workload (advances, yields, block/unblock,
// mid-run spawns, a daemon, and owed handoffs from AdvanceLater taken by
// each kind of engine call) and returns the observed dispatch trace.
// Notes are taken only at dispatch points: between an AdvanceLater and
// the call that takes its handoff, Engine.Now legitimately differs.
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
	// Owed handoffs, each taken by a different call. The lag threads
	// start behind the workers above, so their AdvanceLater calls are
	// usually not the earliest and owe the handoff.
	lagDaemon := e.Spawn("lag-daemon", func(th *Thread) {
		for {
			th.AdvanceLater(40)
			th.Advance(30)
			note(th)
		}
	})
	lagDaemon.SetDaemon(true)
	var lagSleeper *Thread
	lagSleeper = e.Spawn("lag-sleeper", func(th *Thread) {
		th.AdvanceLater(25)
		th.Block()
		note(th)
		th.AdvanceLater(8) // body exit takes this handoff
	})
	// A wake-up that arrives while the sleeper's handoff is owed finds
	// it not yet blocked, as the eager scheduler would.
	var early *Thread
	early = e.Spawn("early-sleeper", func(th *Thread) {
		th.AdvanceLater(25)
		th.Block()
		note(th)
	})
	e.Spawn("waker", func(th *Thread) {
		th.Advance(10)
		trace = append(trace, fmt.Sprintf("waker unblocks early-sleeper at %d: %t", th.Now(), early.Unblock(th.Now())))
		th.Advance(100)
		trace = append(trace, fmt.Sprintf("waker unblocks early-sleeper at %d: %t", th.Now(), early.Unblock(th.Now())))
	})
	// The last thread to exit owes a long handoff: the daemons keep
	// running until it is taken.
	e.Spawn("tail", func(th *Thread) {
		th.Advance(2000)
		note(th)
		th.AdvanceLater(500)
	})
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("l%d", i), func(th *Thread) {
			for j := 0; j < 7; j++ {
				th.AdvanceLater(Time(9*i + 11*j + 1))
				switch j {
				case 0:
					th.Advance(Time(5 * i))
				case 1:
					th.Yield()
				case 2:
					th.Sync()
				case 3:
					if i == 0 {
						lagSleeper.Unblock(th.Now())
					} else {
						th.Sync()
					}
				case 4:
					e.Spawn(fmt.Sprintf("l%d-late", i), func(lt *Thread) {
						lt.AdvanceLater(6)
						lt.Advance(3)
						note(lt)
					})
				case 5:
					th.Charge(CauseCompute, Time(4*i+2))
				case 6:
					th.AdvanceTo(th.Now() + Time(i))
				}
				note(th)
			}
			th.AdvanceLater(Time(12 - i)) // body exit takes this handoff
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

// TestAdvanceLaterMerges pins the merge: a thread that is not the
// earliest, doing AdvanceLater then Advance, costs exactly one handoff
// where two Advances cost two.
func TestAdvanceLaterMerges(t *testing.T) {
	slowSteps := func(later bool) int64 {
		e := NewEngine()
		e.Spawn("a", func(th *Thread) {
			if later {
				th.AdvanceLater(100) // b at 0 is earlier: owed
			} else {
				th.Advance(100)
			}
			th.Advance(50)
		})
		e.Spawn("b", func(th *Thread) { th.Advance(120) })
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		_, slow := e.Stats()
		return slow
	}
	// Eager: a's first dispatch, a->b, b->a at 100, a->b at 150, b's
	// exit -> a. Merged: a's first dispatch, a->b at 150, b's exit -> a.
	if got := slowSteps(false); got != 5 {
		t.Errorf("Advance, Advance: slowSteps = %d, want 5", got)
	}
	if got := slowSteps(true); got != 3 {
		t.Errorf("AdvanceLater, Advance: slowSteps = %d, want 3 (one handoff for the pair)", got)
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
