package exp

import "testing"

// TestProgressMidSweep reads a Progress from a second goroutine while
// forEach's workers update it, the way platinum-bench -status does.
// Under -race it guards the counters' access discipline: a counter
// written atomically but read plainly (or the reverse) is a data race
// here, because the reads overlap the writes of a live sweep.
func TestProgressMidSweep(t *testing.T) {
	e, ok := Find("fig1")
	if !ok {
		t.Fatal("fig1 is not registered")
	}
	p := &Progress{}
	done := make(chan struct{})
	go func() {
		for p.Snapshot().ExperimentsDone != 1 {
		}
		close(done)
	}()

	p.SetTotalExperiments(1)
	p.BeginExperiment(e.ID)
	_, err := e.Run(Options{Quick: true, Parallelism: 4, Progress: p})
	p.EndExperiment()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	s := p.Snapshot()
	if s.RunsTotal == 0 || s.RunsDone != s.RunsTotal {
		t.Errorf("final snapshot runs %d/%d, want all runs done and at least one", s.RunsDone, s.RunsTotal)
	}
	if s.ExperimentsTotal != 1 || s.Current != "" {
		t.Errorf("final snapshot experiments total %d, current %q; want 1 and none running", s.ExperimentsTotal, s.Current)
	}
}
