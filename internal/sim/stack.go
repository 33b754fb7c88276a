//go:build go1.23

package sim

import (
	"iter"
	"runtime"
)

// A stack is a pooled coroutine that runs simulated thread bodies back
// to back. The dispatch loop attaches a stack to a thread at its first
// dispatch; the thread suspends by yielding the stack back to the loop,
// and when its body returns the stack detaches, goes onto the engine's
// free list and waits for its next thread.
type stack struct {
	t     *Thread
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// stackPool holds an engine's idle stacks. Only the Engine references
// it (an idle stack has no thread, so nothing leads back), which lets
// its finalizer stop the idle coroutines once the engine is dropped. A
// finalizer on the Engine itself would never run: the engine is in a
// cycle with its threads, and the runtime does not finalize cycles.
type stackPool struct{ free []*stack }

func newStackPool() *stackPool {
	p := &stackPool{}
	runtime.SetFinalizer(p, func(p *stackPool) {
		for _, s := range p.free {
			s.stop()
		}
	})
	return p
}

// resume runs t on its stack, first attaching an idle or new stack if
// t has never been dispatched, until t yields control back.
//
//platinum:hotpath
func (p *stackPool) resume(t *Thread) {
	s := t.stack
	if s == nil {
		if n := len(p.free); n > 0 {
			s = p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
		} else {
			s = &stack{} //lint:ignore platinum/hotalloc pool warm-up; stacks are reused across runs
			s.next, s.stop = iter.Pull(s.run)
		}
		s.t, t.stack = t, s
	}
	s.next()
}

// run is the stack's coroutine body: one thread per iteration. exec
// recovers the thread's panics, so the coroutine outlives every thread
// it runs; it ends only when the pool's finalizer stops it while idle.
func (s *stack) run(yield func(struct{}) bool) {
	s.yield = yield
	for {
		t := s.t
		t.exec()
		e := t.engine
		s.t = nil
		e.stacks.free = append(e.stacks.free, s)
		if e.stopping {
			e.running = nil // shutdown unwinds threads one at a time
		} else {
			e.dispatchNext(t)
		}
		if !yield(struct{}{}) {
			return
		}
	}
}
