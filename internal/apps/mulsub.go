package apps

// mulSub sets w[i] -= mult*pv[i] for every i < len(pv): the
// multiply-subtract at the heart of every Gauss variant's elimination.
// It panics if w is shorter than pv, and reads and writes nothing past
// len(pv).
//
// The arithmetic wraps, as uint32 arithmetic does in Go. On amd64 CPUs
// with AVX2 the work runs eight lanes at a time (mulsub_amd64.s);
// VPMULLD keeps the low 32 bits of each product and VPSUBD wraps, so the
// result is bit-identical to mulSubGeneric, which runs everywhere else
// and is the reference the tests compare against.

// mulSubGeneric is the portable loop.
func mulSubGeneric(w, pv []uint32, mult uint32) {
	// Equal-length slices let the compiler drop the bounds check.
	w = w[:len(pv)]
	for i, v := range pv {
		w[i] -= mult * v
	}
}
