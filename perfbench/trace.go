package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// iteration is one run of a workload. Its timed phases (acquiring a
// platform, running the simulation, releasing it) add to wall and to
// the heap allocation counts; verification is untimed. When rec is set
// every phase is also recorded as a span.
type iteration struct {
	traced     bool // turn on the kernel's histograms
	rec        *recorder
	n          int // iteration number, shared by its spans
	wall       time.Duration
	allocs     uint64 // heap objects allocated
	allocBytes uint64
}

// timed runs f as a measured phase.
func (it *iteration) timed(name string, f func() error) error {
	var err error
	a0, b0 := heapAllocs()
	t0 := time.Now()
	it.rec.span(name, it.n, func() { err = f() })
	it.wall += time.Since(t0)
	a1, b1 := heapAllocs()
	it.allocs += a1 - a0
	it.allocBytes += b1 - b0
	return err
}

// untimed runs f as an unmeasured phase (verification).
func (it *iteration) untimed(name string, f func() error) error {
	var err error
	it.rec.span(name, it.n, func() { err = f() })
	return err
}

// allocSamples read the cumulative heap allocation counts; reading
// them into preallocated samples does not allocate. Only the main
// goroutine, which runs every iteration's phases, uses them.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// heapAllocs returns the objects and bytes allocated on the heap so far.
func heapAllocs() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// phaseSpan is one benchmark-side span: a phase of the benchmark around
// a call into the simulator, with host-time bounds relative to the
// recorder's origin. Spans of one iteration share Iter; set-up is
// iteration 0.
type phaseSpan struct {
	Name    string  `json:"name"`
	Iter    int     `json:"iter"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// recorder keeps phase spans in memory; write exports them when the
// benchmark ends. A nil recorder records nothing.
type recorder struct {
	origin time.Time
	spans  []phaseSpan
}

func (r *recorder) span(name string, iter int, f func()) {
	if r == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	r.spans = append(r.spans, phaseSpan{
		Name:    name,
		Iter:    iter,
		StartMs: float64(t0.Sub(r.origin).Microseconds()) / 1e3,
		EndMs:   float64(time.Since(r.origin).Microseconds()) / 1e3,
	})
}

// median returns the median duration in seconds of the spans named
// name (0 when there are none).
func (r *recorder) median(name string) float64 {
	var d []float64
	for _, s := range r.spans {
		if s.Name == name {
			d = append(d, (s.EndMs-s.StartMs)/1e3)
		}
	}
	return median(d)
}

func (r *recorder) write(path string) error {
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// heapSampler polls the heap's object bytes (live and not yet swept)
// every millisecond from its own goroutine and keeps the peak since the
// last reset.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for cur := h.max.Load(); v > cur && !h.max.CompareAndSwap(cur, v); cur = h.max.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// reset starts a new peak window at the current heap size.
func (h *heapSampler) reset() { h.max.Store(0) }

// peak returns the largest heap size seen since the last reset.
func (h *heapSampler) peak() uint64 { return h.max.Load() }

// close stops the sampler and waits for its goroutine to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
