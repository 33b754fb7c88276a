package core

import (
	"testing"

	"platinum/internal/sim"
)

func TestTraceRecordsProtocolStory(t *testing.T) {
	fx := newFixture(t, nil)
	fx.s.EnableTrace(1000)
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		freezePage(fx, th, 0, 0, 1, 2) // write, migrate, freeze
		th.Advance(quiet)
		fx.s.DefrostSweep(th, 0)
	})
	events, dropped := fx.s.Trace()
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	counts := map[EventKind]int{}
	var last sim.Time
	for _, ev := range events {
		if ev.Time < last {
			t.Fatalf("trace times not monotone: %v after %v", ev.Time, last)
		}
		last = ev.Time
		counts[ev.Kind]++
	}
	for _, want := range []EventKind{EvWriteFault, EvMigration, EvFreeze, EvRemoteMap, EvThaw} {
		if counts[want] == 0 {
			t.Errorf("no %v event recorded (counts: %v)", want, counts)
		}
	}
	if counts[EvWriteFault] != 3 {
		t.Errorf("write faults = %d, want 3", counts[EvWriteFault])
	}
	if counts[EvFreeze] != 1 || counts[EvThaw] != 1 {
		t.Errorf("freeze/thaw = %d/%d, want 1/1", counts[EvFreeze], counts[EvThaw])
	}
}

func TestTraceCapacityAndDisable(t *testing.T) {
	fx := newFixture(t, nil)
	fx.s.EnableTrace(2)
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, true)
	})
	events, dropped := fx.s.Trace()
	if len(events) != 2 {
		t.Fatalf("events = %d, want capped at 2", len(events))
	}
	if dropped == 0 {
		t.Fatal("no drops counted past capacity")
	}
	fx.s.EnableTrace(0) // disable
	if ev, _ := fx.s.Trace(); ev != nil {
		t.Fatal("trace still enabled after disable")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) { fx.touch(th, 0, 0, true) })
	if ev, _ := fx.s.Trace(); ev != nil {
		t.Fatal("events recorded without EnableTrace")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := EventKinds()
	if len(kinds) == 0 {
		t.Fatal("EventKinds returned nothing")
	}
	seen := map[string]EventKind{}
	for _, k := range kinds {
		name := k.String()
		if name == "event(?)" {
			t.Errorf("kind %d has no name", k)
		}
		if c := k.Class(); c < ClassFault || c > ClassOther {
			t.Errorf("kind %v has no valid class (got %d)", k, c)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if EventKind(99).String() != "event(?)" || EventKind(99).Class() != 0 || EventKind(99).CountCol() != -1 {
		t.Error("unknown kind not handled")
	}
}
