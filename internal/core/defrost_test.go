package core

import (
	"testing"

	"platinum/internal/mach"
	"platinum/internal/sim"
)

// freezePage drives the classic freeze sequence on vpn: materialize on
// proc a, migrate to proc b after the quiet window, then re-fault within
// T1 from proc c so the policy freezes the page.
func freezePage(fx *fixture, th *sim.Thread, vpn int64, a, b, c int) {
	fx.touch(th, a, vpn, true)
	th.Advance(quiet)
	fx.touch(th, b, vpn, true)
	th.Advance(sim.Millisecond)
	fx.touch(th, c, vpn, true)
}

func TestDefrostDueThawsOnlyAgedPages(t *testing.T) {
	fx := newFixture(t, nil)
	cpA := fx.mapPage(0, Read|Write)
	cpB := fx.mapPage(1, Read|Write)
	fx.run(func(th *sim.Thread) {
		freezePage(fx, th, 0, 0, 1, 2)
		th.Advance(50 * sim.Millisecond)
		freezePage(fx, th, 1, 3, 4, 5)
		// Page A is ~50 ms old, page B freshly frozen.
		thawed, next := fx.s.DefrostDue(th, 0, 40*sim.Millisecond)
		if thawed != 1 {
			t.Fatalf("thawed %d pages, want 1", thawed)
		}
		if cpA.Frozen() {
			t.Error("aged page A still frozen")
		}
		if !cpB.Frozen() {
			t.Error("fresh page B thawed early")
		}
		if next == 0 {
			t.Error("no next thaw time reported while B is frozen")
		}
		// Later, B becomes due.
		th.Advance(60 * sim.Millisecond)
		thawed, next = fx.s.DefrostDue(th, 0, 40*sim.Millisecond)
		if thawed != 1 || cpB.Frozen() {
			t.Errorf("B not thawed on second pass (thawed=%d)", thawed)
		}
		if next != 0 {
			t.Errorf("next = %v with nothing frozen", next)
		}
	})
}

func TestAdaptiveDefrostDaemon(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.DefrostPeriod = 20 * sim.Millisecond
		cc.AdaptiveDefrost = true
	})
	cp := fx.mapPage(0, Read|Write)
	fx.s.StartDefrostDaemon(0)
	fx.run(func(th *sim.Thread) {
		freezePage(fx, th, 0, 0, 1, 2)
		if !cp.Frozen() {
			t.Fatal("page not frozen")
		}
		// Within the period the page must stay frozen...
		th.Advance(10 * sim.Millisecond)
		if !cp.Frozen() {
			t.Fatal("adaptive daemon thawed the page before its age reached t2")
		}
		// ...and afterwards it must thaw.
		th.Advance(40 * sim.Millisecond)
		if cp.Frozen() {
			t.Error("adaptive daemon never thawed the page")
		}
	})
}

func TestPeriodicAndAdaptiveDefrostAgree(t *testing.T) {
	// Both daemon variants must leave the page thawed well after t2, and
	// record exactly one thaw.
	for _, adaptive := range []bool{false, true} {
		fx := newFixture(t, func(_ *mach.Config, cc *Config) {
			cc.DefrostPeriod = 20 * sim.Millisecond
			cc.AdaptiveDefrost = adaptive
		})
		cp := fx.mapPage(0, Read|Write)
		fx.s.StartDefrostDaemon(0)
		fx.run(func(th *sim.Thread) {
			freezePage(fx, th, 0, 0, 1, 2)
			th.Advance(100 * sim.Millisecond)
		})
		if cp.Frozen() {
			t.Errorf("adaptive=%v: page still frozen", adaptive)
		}
		if cp.Stats.Events[EvThaw] != 1 {
			t.Errorf("adaptive=%v: thaws = %d, want 1", adaptive, cp.Stats.Events[EvThaw])
		}
	}
}

func TestFrozenPagesListing(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.mapPage(1, Read|Write)
	fx.run(func(th *sim.Thread) {
		freezePage(fx, th, 0, 0, 1, 2)
		if got := len(fx.s.FrozenPages()); got != 1 {
			t.Fatalf("frozen pages = %d, want 1", got)
		}
		freezePage(fx, th, 1, 3, 4, 5)
		if got := len(fx.s.FrozenPages()); got != 2 {
			t.Fatalf("frozen pages = %d, want 2", got)
		}
		fx.s.DefrostSweep(th, 0)
		if got := len(fx.s.FrozenPages()); got != 0 {
			t.Fatalf("frozen pages after sweep = %d, want 0", got)
		}
	})
}
