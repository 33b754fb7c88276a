package apps

import (
	"math/rand/v2"
	"testing"
)

// TestMulSubMatchesPortable compares the dispatched kernel with the
// portable loop on every length up to 70 (several eight-lane blocks
// plus every tail), every alignment of both slices within a 32-byte
// vector, and multipliers that hit the wrap-around corners. The words
// around the updated range must stay untouched.
func TestMulSubMatchesPortable(t *testing.T) {
	const sentinel = 0xDEADBEEF
	rng := rand.New(rand.NewPCG(19, 89))
	for _, mult := range []uint32{0, 1, 0xFFFFFFFF, rng.Uint32()} {
		for n := 0; n <= 70; n++ {
			for wOff := 0; wOff < 8; wOff++ {
				for pOff := 0; pOff < 8; pOff++ {
					pbuf := make([]uint32, pOff+n)
					for i := range pbuf {
						pbuf[i] = rng.Uint32()
					}
					got := make([]uint32, wOff+n+1)
					for i := range got {
						got[i] = rng.Uint32()
					}
					got[wOff+n] = sentinel
					want := append([]uint32(nil), got...)

					mulSub(got[wOff:], pbuf[pOff:], mult)
					mulSubGeneric(want[wOff:], pbuf[pOff:], mult)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("mult %#x len %d offsets w+%d pv+%d: word %d is %#x, want %#x",
								mult, n, wOff, pOff, i, got[i], want[i])
						}
					}
					if got[wOff+n] != sentinel {
						t.Fatalf("mult %#x len %d: the word after len(pv) changed", mult, n)
					}
				}
			}
		}
	}
}

func TestMulSubRejectsShortDestination(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mulSub with len(w) < len(pv) did not panic")
		}
	}()
	mulSub(make([]uint32, 7), make([]uint32, 8), 3)
}

// BenchmarkMulSub times one 800-wide row update, the widest a Fig. 1
// run performs, through the portable loop and through the kernel the
// CPU selects.
func BenchmarkMulSub(b *testing.B) {
	const width = 800
	pv := make([]uint32, width)
	w := make([]uint32, width)
	for i := range pv {
		pv[i], w[i] = uint32(3*i+1), uint32(i)
	}
	for _, k := range []struct {
		name string
		fn   func(w, pv []uint32, mult uint32)
	}{
		{"portable", mulSubGeneric},
		{"dispatched", mulSub},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn(w, pv, uint32(i)|1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/elem")
		})
	}
}
