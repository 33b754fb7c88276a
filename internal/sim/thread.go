package sim

import "fmt"

type threadState uint8

const (
	stateReady threadState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Thread is a simulated thread of control with its own virtual clock.
// All methods that consume or yield virtual time (Advance, Yield, Block)
// must be called only from within the thread's own body function.
type Thread struct {
	engine *Engine
	id     int
	name   string
	clock  Time
	daemon bool
	state  threadState

	fn    func(*Thread) // body; cleared when the thread finishes
	stack *stack        // coroutine running the body; nil before dispatch and after finish

	heapIdx int // index in the ready heap, -1 if absent

	// owed is set while the thread runs past a dispatch point it has
	// not taken yet (see AdvanceLater); its next Advance or Sync takes
	// it.
	owed bool

	// Cost attribution (see account.go): born is the clock at Spawn,
	// acct the per-cause time consumed since, node the processor whose
	// engine-level account also receives this thread's charges (-1:
	// none).
	born Time
	acct Account
	node int
}

// ID returns the thread's unique id, assigned in spawn order.
func (t *Thread) ID() int { return t.id }

// Name returns the name given at Spawn.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's virtual clock.
func (t *Thread) Now() Time { return t.clock }

// Engine returns the engine the thread belongs to.
func (t *Thread) Engine() *Engine { return t.engine }

// SetDaemon marks the thread as a daemon. The engine's Run returns once
// all non-daemon threads finish, even if daemons are still runnable.
// Must be called before Run dispatches the thread for the first time.
func (t *Thread) SetDaemon(d bool) {
	if t.daemon == d {
		return
	}
	t.daemon = d
	if d {
		t.engine.nlive--
	} else {
		t.engine.nlive++
	}
	if t.heapIdx >= 0 || t.state == stateReady {
		if d {
			t.engine.readyND--
		} else {
			t.engine.readyND++
		}
	}
}

// exec runs t's body on its stack. It recovers a body panic, which
// halts the simulated machine (Run reports it), and the errStopped
// unwind of a stopping engine, so the stack survives both.
func (t *Thread) exec() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errStopped); !ok && t.engine.fail == nil {
				t.engine.fail = &ThreadPanicError{Thread: t.name, Value: r}
			}
		}
		t.finish()
	}()
	t.fn(t)
	t.Sync()
}

// finish marks t done and drops its body and stack, so a pooled Thread
// does not keep the previous run's closure alive.
func (t *Thread) finish() {
	t.state = stateDone
	t.fn, t.stack = nil, nil
	if !t.daemon {
		t.engine.nlive--
	}
}

// park suspends t, yielding its stack to the dispatch loop, until the
// loop resumes it (its dispatcher has already marked it running); in a
// stopping engine t then unwinds.
//
//platinum:hotpath
func (t *Thread) park() {
	t.stack.yield(struct{}{})
	if t.engine.stopping {
		panic(errStopped{})
	}
}

// yield chooses the next runnable thread and parks until dispatched
// again. If this thread is itself still the earliest runnable thread,
// it keeps executing without parking at all. A thread already
// unwinding (a deferred call that yields) unwinds further instead.
//
//platinum:hotpath
func (t *Thread) yield() {
	e := t.engine
	if e.stopping {
		panic(errStopped{})
	}
	if !e.dispatchNext(t) {
		t.park()
	}
}

// Advance consumes d of virtual time and yields to the scheduler, so any
// thread whose clock is now smaller runs first. d must be non-negative.
//
// Fast path: if after advancing the thread is still strictly the
// earliest runnable thread — the ready heap is empty, or its minimum
// entry orders after (clock, id) — the dispatcher would pop this thread
// right back, so Advance skips the park/resume handoff and returns with
// the thread still running. This elides two coroutine switches per
// reference for any phase where one thread runs behind all others
// (in particular the whole of every 1-processor run) while leaving the
// dispatch order bit-for-bit identical.
//
//platinum:hotpath
func (t *Thread) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative Advance(%d) by thread %q", d, t.name))
	}
	t.clock += d
	t.bank(CauseUnattributed, d)
	t.owed = false
	e := t.engine
	if e.fastPath && e.running == t && !e.stopping {
		if e.earliest(t) {
			e.fastStep(t)
			return
		}
		if !t.daemon {
			// Fused handoff: top orders before t, so push(t)+pop() would
			// return exactly top. Swap t into top's slot with one
			// sift-down and make top the successor. t being a live
			// non-daemon guarantees the dispatcher's liveness conditions
			// (nlive > 0, a non-daemon ready) hold.
			u := e.ready.replaceTop(t)
			t.state = stateReady
			if u.daemon {
				e.readyND++ // non-daemon t entered the heap, daemon u left
			}
			if u.clock > e.now {
				e.now = u.clock
			}
			e.running = u
			u.state = stateRunning
			e.slowSteps++
			t.park()
			return
		}
	}
	t.state = stateReady
	e.pushReady(t)
	t.yield()
}

// AdvanceLater consumes d of virtual time like Advance but, when the
// thread is no longer the earliest runnable thread, owes the handoff
// instead of taking it: the thread keeps executing, and its next
// Advance (or Charge, Yield) takes the owed handoff merged with its own
// dispatch point — one coroutine switch instead of two. Sync takes it
// when no such call follows.
//
// The merge pops the same (clock, id) sequence as taking both handoffs
// eagerly, provided the thread runs only thread-private work between
// AdvanceLater and its next dispatch point: nothing another simulated
// thread can observe. Every engine call that can be observed (Block,
// Spawn, Unblock, body exit) and every layer entry that reads or writes
// shared simulated state calls Sync first.
//
// With the fast path off AdvanceLater is plain Advance, so the
// reference scheduler stays the eager oracle.
//
//platinum:hotpath
func (t *Thread) AdvanceLater(d Time) {
	e := t.engine
	if d < 0 || !e.fastPath || e.running != t || e.stopping {
		t.Advance(d) // the eager step, which also rejects a negative d
		return
	}
	t.clock += d
	t.bank(CauseUnattributed, d)
	t.owed = !e.earliest(t)
	if !t.owed {
		e.fastStep(t)
	}
}

// Sync takes the handoff an earlier AdvanceLater owes, if any, so the
// thread resumes exactly where the eager scheduler would have
// dispatched it. Call it before reading or writing state another
// simulated thread can see.
//
//platinum:hotpath
func (t *Thread) Sync() {
	if t.owed {
		t.Advance(0)
	}
}

// AdvanceTo advances the thread's clock to at least instant.
//
//platinum:hotpath
func (t *Thread) AdvanceTo(instant Time) {
	if instant > t.clock {
		t.Advance(instant - t.clock)
	} else {
		t.Yield()
	}
}

// Yield lets equal- or lower-clock threads run without consuming time.
//
//platinum:hotpath
func (t *Thread) Yield() { t.Advance(0) }

// Block parks the thread until another thread calls Unblock on it,
// first taking any owed handoff (Sync).
//
//platinum:hotpath
func (t *Thread) Block() {
	t.Sync()
	t.state = stateBlocked
	t.yield()
}

// Unblock makes a blocked thread runnable again with its clock advanced
// to at least wake (a blocked thread cannot resume before the event that
// woke it). The clock jump is attributed to CauseSync — it is time the
// thread spent blocked. Unblocking a thread that is not blocked is a
// no-op and reports false. The calling thread first takes any handoff
// it owes (Sync), so it unblocks t at the point the eager scheduler
// would have.
//
//platinum:hotpath
func (t *Thread) Unblock(wake Time) bool {
	if r := t.engine.running; r != nil {
		r.Sync()
	}
	if t.state != stateBlocked {
		return false
	}
	if wake > t.clock {
		t.bank(CauseSync, wake-t.clock)
		t.clock = wake
	}
	t.state = stateReady
	t.engine.pushReady(t)
	return true
}

// Done reports whether the thread's body has returned.
func (t *Thread) Done() bool { return t.state == stateDone }
