package kernel

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"platinum/internal/core"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// TestMigrateSliceSpans checks the scheduling-slice instrumentation and
// pins every other span the kernel and machine record outside the fault
// path. A thread that migrates produces one slice span per processor
// residency, the slices carry the right processor tags, and the
// migration gap between them holds the kernel-stack block transfer. The
// program also makes a queued Cmap message apply on reactivation
// (msg-apply, or batch-flush under the batched page-table variant) and
// an injected module retry. The whole recording must nest, reconcile
// exactly with the Account totals, and export Chrome bytes matching the
// committed SHA-256 for each page-table configuration.
func TestMigrateSliceSpans(t *testing.T) {
	cases := []struct {
		name   string
		pt     core.PTConfig
		lazy   span.Kind // the activation-side lazy-shootdown span
		digest string
	}{
		{"default", core.PTConfig{}, span.KindMsgApply,
			"00e7fa6121b406586fe92b440e2277b340e08adaee6ce10a697caf25674c04cf"},
		{"pt-home-batched", core.PTConfig{Mode: core.PTHome, BatchShootdown: true}, span.KindBatchFlush,
			"fb23f348c14de556f80ca2c07629d8f59277c98e464ac60de8c96db9b56e5cc8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := boot(t, func(c *Config) { c.Core.PageTables = tc.pt })
			k.EnableSpans(0)
			accesses := 0
			k.Machine().SetAccessFault(func(proc, mod int) sim.Time {
				accesses++
				if accesses%2 == 0 {
					return 300 * sim.Nanosecond
				}
				return 0
			})
			sp := k.NewSpace()
			va, err := sp.AllocWords("data", 32, core.Read|core.Write)
			if err != nil {
				t.Fatalf("AllocWords: %v", err)
			}
			hops := []int{0, 3, 0}
			k.Spawn("hopper", hops[0], sp, func(th *Thread) {
				th.Write(va, 1)
				th.Migrate(hops[1])
				th.Sleep(10 * sim.Millisecond)
				th.Migrate(hops[2])
				th.Read(va)
			})
			k.Spawn("reader", 1, sp, func(th *Thread) {
				th.Sleep(5 * sim.Millisecond)
				th.Read(va)
			})
			if err := k.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}

			spans := k.Spans().Spans()
			if err := span.ValidateNesting(spans); err != nil {
				t.Fatalf("nesting: %v", err)
			}
			if err := span.Reconcile(spans, k.TotalAccount()); err != nil {
				t.Fatalf("reconcile: %v", err)
			}

			var slices, stacks []span.Span
			kinds := map[span.Kind]int{}
			for _, s := range spans {
				kinds[s.Kind]++
				switch {
				case s.Kind == span.KindSlice && s.Note == "hopper":
					slices = append(slices, s)
				case s.Kind == span.KindBlockTransfer && s.Self > 0 && s.Page < 0:
					stacks = append(stacks, s)
				}
			}
			for _, want := range []span.Kind{span.KindSlice, tc.lazy, span.KindRetry, span.KindBlockTransfer} {
				if kinds[want] == 0 {
					t.Errorf("no %s span recorded", want)
				}
			}
			if len(slices) != len(hops) {
				t.Fatalf("got %d hopper slices, want %d: %+v", len(slices), len(hops), slices)
			}
			if len(stacks) != len(hops)-1 {
				t.Fatalf("got %d kernel-stack transfers, want %d", len(stacks), len(hops)-1)
			}
			var prevEnd sim.Time
			for i, s := range slices {
				if s.Proc != hops[i] {
					t.Errorf("slice %d on proc %d, want %d", i, s.Proc, hops[i])
				}
				if s.Start < prevEnd {
					t.Errorf("slice %d starts at %d before previous slice ended at %d", i, s.Start, prevEnd)
				}
				if i > 0 {
					// The migration gap holds the stack transfer.
					x := stacks[i-1]
					if x.Start < prevEnd || x.End > s.Start {
						t.Errorf("stack transfer [%d,%d] outside migration gap [%d,%d]",
							x.Start, x.End, prevEnd, s.Start)
					}
				}
				prevEnd = s.End
			}

			var buf bytes.Buffer
			if err := span.WriteChrome(&buf, spans, nil); err != nil {
				t.Fatalf("WriteChrome: %v", err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.digest {
				t.Errorf("Chrome export sha256 = %s, want %s (kinds %v)", got, tc.digest, kinds)
			}
		})
	}
}
