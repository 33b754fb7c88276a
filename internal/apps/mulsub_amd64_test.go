package apps

import (
	"bytes"
	"fmt"
	"testing"

	"platinum/internal/kernel"
)

// TestGaussSameBytesWithAndWithoutAVX2 runs the shared-memory and
// message-passing programs once on the portable loop and once on the
// AVX2 kernel. Both must reduce the matrix to the portable reference
// and export identical metrics, timeline and span bytes.
func TestGaussSameBytesWithAndWithoutAVX2(t *testing.T) {
	if !detectAVX2() {
		t.Skip("this CPU has no AVX2")
	}
	defer func(saved bool) { hasAVX2 = saved }(hasAVX2)
	hasAVX2 = false
	cfg := DefaultGaussConfig(40, 4)
	want := GaussReferenceChecksum(cfg)

	for _, prog := range []struct {
		name string
		run  func(*PlatinumPlatform, GaussConfig) (GaussResult, error)
	}{
		{"platinum", RunGaussPlatinum},
		{"smp", RunGaussSMP},
	} {
		var outs [2]oracleOut
		for i, avx2 := range []bool{false, true} {
			hasAVX2 = avx2
			outs[i] = oraclePlatform(t, kernel.DefaultConfig(), func(pl *PlatinumPlatform) error {
				r, err := prog.run(pl, cfg)
				if err == nil && r.Checksum != want {
					err = fmt.Errorf("%s checksum %#x with AVX2 %t, want the portable reference %#x",
						prog.name, r.Checksum, avx2, want)
				}
				return err
			})(true)
		}
		for _, c := range []struct {
			name    string
			off, on []byte
		}{
			{"metrics JSON", outs[0].metrics, outs[1].metrics},
			{"timeline", outs[0].timeline, outs[1].timeline},
			{"spans", outs[0].spans, outs[1].spans},
		} {
			if !bytes.Equal(c.off, c.on) {
				t.Errorf("%s: %s differs between the portable loop and AVX2", prog.name, c.name)
			}
		}
	}
}
