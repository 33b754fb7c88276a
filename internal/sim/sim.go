// Package sim implements a deterministic, sequential discrete-event
// simulation engine used as the time base for the simulated NUMA
// multiprocessor.
//
// The engine multiplexes any number of simulated threads, each with its
// own virtual clock. Each thread runs on a coroutine (a pooled
// iter.Pull "stack" that runs thread bodies back to back), and Run is
// one dispatch loop that resumes the chosen thread's stack until the
// thread yields. The engine always chooses the runnable thread with
// the globally minimum (clock, id) pair, so every run is bit-for-bit
// reproducible regardless of the Go scheduler.
//
// A simulated thread consumes virtual time by calling Advance, blocks by
// calling Block, and is made runnable again when some other thread calls
// Unblock on it. Shared simulation state (memory modules, page tables,
// protocol state) needs no locking: it is only ever touched by the single
// currently-executing thread.
//
// A yielding thread chooses its successor itself (Engine.dispatchNext,
// or the fused replace-top step in Thread.Advance) and then yields to
// the dispatch loop, which resumes that successor. Run itself chooses
// only when the yielding thread cannot: at termination, at deadlock,
// after a panic, or with the fast path off. The fast path keeps
// most steps from switching coroutines at all: a thread that advances
// its clock and remains strictly the earliest runnable thread keeps
// executing in place (see Thread.Advance). Engine.SetFastPath disables
// it, leaving the reference scheduler the fast path must match; the
// dispatch order, and therefore every simulation result, is identical
// either way.
//
// A memory reference's closing charge goes one step further
// (Thread.AdvanceLater): a thread that is no longer the earliest keeps
// executing and owes the handoff, which its next Advance takes merged
// with its own, or Sync takes alone. The sync rule keeps this exact:
// between an owed handoff and its next dispatch point a thread runs only
// thread-private work. Every engine call another thread can observe
// (Block, Spawn, Unblock, body exit) and every layer entry that reads or
// writes shared simulated state calls Sync first.
package sim

import (
	"errors"
	"fmt"

	"platinum/internal/hist"
	"platinum/internal/timeseries"
)

// Time is a point in (or duration of) virtual time, in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a Time with an adaptive unit, e.g. "1.340ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// ErrDeadlock is returned by Run when every remaining non-daemon thread
// is blocked and no thread can ever unblock them.
var ErrDeadlock = errors.New("sim: deadlock: all non-daemon threads blocked")

// errStopped is panicked at a thread's yield point to unwind its body
// when the engine shuts down; the thread's stack recovers it.
type errStopped struct{}

// Engine is a deterministic discrete-event scheduler for simulated
// threads. The zero value is not usable; call NewEngine.
type Engine struct {
	ready    threadHeap
	threads  []*Thread // indexed by id
	now      Time
	running  *Thread // the thread the dispatch loop resumes next, if any
	nlive    int     // non-daemon threads not yet finished
	readyND  int     // non-daemon threads currently in the ready heap
	stopping bool
	fastPath bool
	fail     error // first thread-body panic, reported by Run

	// fastSteps counts dispatches elided entirely (a thread kept
	// executing without any coroutine switch); slowSteps counts real
	// resumes of a suspended thread. Exposed through Stats.
	fastSteps int64
	slowSteps int64

	// nodeAcct accumulates per-node cost attribution for threads bound
	// via Thread.BindNode (see account.go); grown on demand.
	nodeAcct []Account

	// Opt-in charge-path telemetry (see telemetry.go): telemetry gates
	// the hot-path hook, histsOn/chargeHists the per-(node, cause)
	// latency histograms, seriesOn/causeSeries the windowed per-cause
	// time series.
	telemetry   bool
	histsOn     bool
	chargeHists []hist.H
	seriesOn    bool
	causeSeries *timeseries.Series

	// pool holds finished Thread structs recycled by Reset, and stacks
	// the idle coroutines that run thread bodies. Both outlive Reset,
	// so Spawn and the first dispatch of a thread reuse them.
	pool   []*Thread
	stacks *stackPool
}

// ThreadPanicError reports a simulated thread whose body panicked — for
// kernel programs, the equivalent of the machine halting on a fatal
// trap. Run returns it and unwinds the remaining threads.
type ThreadPanicError struct {
	Thread string
	Value  any
}

// Error reports the panicking thread's name and the recovered value.
func (e *ThreadPanicError) Error() string {
	return fmt.Sprintf("sim: thread %q panicked: %v", e.Thread, e.Value)
}

// pushReady enqueues t for dispatch. A thread already resident in the
// ready heap (heapIdx >= 0) is not pushed again — its position is fixed
// up in place for the possibly-updated clock — so the heap never holds
// duplicate entries and readyND counts each thread at most once.
//
//platinum:hotpath
func (e *Engine) pushReady(t *Thread) {
	if t.heapIdx >= 0 {
		e.ready.fix(t.heapIdx)
		return
	}
	e.ready.push(t)
	if !t.daemon {
		e.readyND++
	}
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{fastPath: true, stacks: newStackPool()}
}

// SetFastPath enables or disables the scheduler fast path, under which
// a thread calling Advance or Yield keeps executing in place whenever
// it is still strictly the earliest runnable thread (so the dispatcher
// would immediately re-select it anyway). The dispatch order — and
// therefore every simulation result — is identical either way; only
// the coroutine switches are elided. Enabled by default; Reset
// enables it again.
func (e *Engine) SetFastPath(on bool) { e.fastPath = on }

// Stats reports scheduler counters: dispatches elided by the fast path
// and full suspend/resume handoffs.
func (e *Engine) Stats() (fastSteps, slowSteps int64) {
	return e.fastSteps, e.slowSteps
}

// Now reports the engine's current virtual time: the clock of the most
// recently dispatched thread.
func (e *Engine) Now() Time { return e.now }

// Spawn creates a new simulated thread whose body is fn, with its clock
// initialized to the current virtual time. The thread does not run until
// Run dispatches it. Spawn may be called before Run or from inside a
// running thread, which first takes any handoff it owes (Sync).
func (e *Engine) Spawn(name string, fn func(*Thread)) *Thread {
	if e.running != nil {
		e.running.Sync()
	}
	var t *Thread
	if n := len(e.pool); n > 0 {
		t = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		t = &Thread{}
	}
	*t = Thread{engine: e, id: len(e.threads), name: name, fn: fn, state: stateReady,
		clock: e.now, born: e.now, heapIdx: -1, node: -1}
	e.threads = append(e.threads, t)
	e.nlive++
	e.pushReady(t)
	return t
}

// dispatchNext chooses the successor of thread from, which has just
// yielded, blocked, or finished, and records it in e.running for the
// dispatch loop to resume. If from itself is still the earliest
// runnable thread, dispatchNext reports true and from keeps executing
// without any coroutine switch. Otherwise (simulation over, deadlock,
// a recorded panic, or the fast path disabled) it clears e.running and
// Run decides: with the fast path off every dispatch goes through Run,
// reproducing the reference scheduler for A/B testing.
//
//platinum:hotpath
func (e *Engine) dispatchNext(from *Thread) bool {
	if e.fastPath && e.fail == nil && e.nlive > 0 && e.readyND > 0 {
		return e.dispatch(from)
	}
	e.running = nil
	return false
}

// earliest reports whether the running thread t orders strictly before
// every ready thread by (clock, id), so the dispatcher would pop it
// right back.
//
//platinum:hotpath
func (e *Engine) earliest(t *Thread) bool {
	top := e.ready.peek()
	return top == nil || t.clock < top.clock || (t.clock == top.clock && t.id < top.id)
}

// fastStep records a dispatch the fast path elides: t, still the
// earliest, keeps executing.
//
//platinum:hotpath
func (e *Engine) fastStep(t *Thread) {
	if t.clock > e.now {
		e.now = t.clock
	}
	e.fastSteps++
}

// dispatch pops the earliest ready thread and makes it the running
// thread, reporting whether it is from (which then keeps executing).
//
//platinum:hotpath
func (e *Engine) dispatch(from *Thread) bool {
	t := e.ready.pop()
	if !t.daemon {
		e.readyND--
	}
	if t.clock > e.now {
		e.now = t.clock
	}
	e.running = t
	t.state = stateRunning
	if t == from {
		e.fastSteps++
		return true
	}
	e.slowSteps++
	return false
}

// Run executes the simulation until every non-daemon thread has finished.
// It returns ErrDeadlock if non-daemon threads remain but all are blocked.
// Daemon threads (see Thread.SetDaemon) still runnable at shutdown are
// unwound cleanly.
func (e *Engine) Run() error {
	defer e.shutdown()
	for e.nlive > 0 {
		if e.fail != nil {
			return e.fail
		}
		// If every live non-daemon thread is blocked, daemons in this
		// system never unblock application threads, so this is a
		// deadlock even while daemons remain runnable.
		if e.readyND == 0 {
			return ErrDeadlock
		}
		// The dispatch loop: each resumed thread runs until it yields,
		// having chosen its successor, or clears e.running for the
		// checks above (termination, deadlock, or panic).
		e.dispatch(nil)
		for e.running != nil {
			e.stacks.resume(e.running)
		}
	}
	return e.fail
}

// shutdown unwinds every unfinished thread, in id order.
func (e *Engine) shutdown() {
	e.stopping = true
	for _, t := range e.threads {
		switch {
		case t.state == stateDone:
		case t.stack == nil:
			t.finish() // never dispatched: its body never runs
		default:
			// The resumed thread's yield point panics with errStopped,
			// unwinding its body; its stack then clears e.running.
			e.running = t
			e.stacks.resume(t)
		}
	}
}

// Live reports the number of unfinished non-daemon threads.
func (e *Engine) Live() int { return e.nlive }

// Reset returns the engine to its freshly-constructed state — virtual
// time zero, no threads, thread ids restarting at 0 — while retaining
// every buffer it has grown: the ready heap's backing array, the
// per-node account slice, the idle stacks, and the finished Thread
// structs, which go into a free list that Spawn draws from. A reset
// engine behaves bit-for-bit identically to one from NewEngine; only
// the allocations are elided.
//
// Reset may only be called after Run has returned (or before any thread
// was spawned): every thread must have unwound. It panics if an
// unfinished thread remains.
func (e *Engine) Reset() {
	for _, t := range e.threads {
		if t.state != stateDone {
			panic(fmt.Sprintf("sim: Reset with unfinished thread %q", t.name))
		}
		e.pool = append(e.pool, t)
	}
	clear(e.threads)
	e.threads = e.threads[:0]
	// The heap may still hold entries for finished daemon threads that
	// were never popped; drop them, keeping the backing array.
	for i := range e.ready.items {
		e.ready.items[i] = nil
	}
	e.ready.items = e.ready.items[:0]
	e.now = 0
	e.running = nil
	e.nlive = 0
	e.readyND = 0
	e.stopping = false
	e.fastPath = true
	e.fail = nil
	e.fastSteps = 0
	e.slowSteps = 0
	// Zero the full capacity so BindNode can re-extend the slice within
	// it and expose only zeroed accounts.
	acct := e.nodeAcct[:cap(e.nodeAcct)]
	for i := range acct {
		acct[i] = Account{}
	}
	e.nodeAcct = e.nodeAcct[:0]
	e.resetTelemetry()
}
