package core

import (
	"sync"
	"testing"
	"time"

	"spate/internal/decay"
	"spate/internal/telco"
)

// TestDecayRunSweepsThePlan drives the lock-split decay path by hand: a
// sweep in small batches decays exactly what the policy plans, deleting
// the leaves' files, the decayed window still answers, and a second sweep
// finds nothing left to do — the lifecycle daemon's steady state.
func TestDecayRunSweepsThePlan(t *testing.T) {
	// Ingest under the zero policy (nothing decays inline), then reopen
	// with a 2h horizon so every sweep is explicit.
	r := newRig(t, Options{})
	r.ingestEpochs(t, 10) // 5 hours
	e := reopen(t, r, Options{Policy: decay.Policy{KeepRaw: 2 * time.Hour}})
	now := telco.EpochOf(r.cfg.Start).Start().Add(5 * time.Hour)
	filesBefore := len(r.fs.List("/spate/data/"))

	rep, err := e.DecayRun(now, DecayBudget{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The leaves ending at or before now-2h: the first 3 hours' 6.
	if rep.LeavesDecayed != 6 || rep.BytesFreed == 0 || rep.RefsDeleted != 12 {
		t.Fatalf("sweep = %+v, want 6 leaves and their 12 files", rep)
	}
	if st := e.Tree().Stats(); st.DecayedLeaves != rep.LeavesDecayed {
		t.Errorf("tree has %d decayed leaves, the sweep reported %d", st.DecayedLeaves, rep.LeavesDecayed)
	}
	if got := len(r.fs.List("/spate/data/")); got != filesBefore-rep.RefsDeleted {
		t.Errorf("%d data files left of %d, want %d deleted", got, filesBefore, rep.RefsDeleted)
	}

	// The decayed window still answers (marking its decayed leaves), and a
	// second sweep finds nothing left to do. (Rows are not asserted: these
	// leaves sit in an unsealed day, whose ephemeral summaries recovery
	// does not rebuild — realistic horizons decay only sealed days, served
	// by their persisted day summaries.)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(time.Hour))
	res, err := e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecayedLeaves == 0 {
		t.Errorf("decayed window reports %d decayed leaves", res.DecayedLeaves)
	}
	again, err := e.DecayRun(now, DecayBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if again != (decay.Result{}) {
		t.Errorf("idempotent sweep did %+v", again)
	}
}

// TestDecayRunFollowsTheHorizon: each sweep decays the leaves the horizon
// has passed since the last one, whatever the batch size.
func TestDecayRunFollowsTheHorizon(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 8)
	e := reopen(t, r, Options{Policy: decay.Policy{KeepRaw: time.Hour}})
	start := telco.EpochOf(r.cfg.Start).Start()
	for _, step := range []struct {
		now     time.Duration
		batch   int
		decayed int
	}{
		{2 * time.Hour, 1, 2},  // the first hour
		{2 * time.Hour, 1, 0},  // nothing new
		{4 * time.Hour, 32, 4}, // the next two hours
		{8 * time.Hour, 0, 2},  // the rest up to the horizon
	} {
		rep, err := e.DecayRun(start.Add(step.now), DecayBudget{BatchSize: step.batch})
		if err != nil {
			t.Fatal(err)
		}
		if rep.LeavesDecayed != step.decayed {
			t.Errorf("sweep at +%v decayed %d leaves, want %d", step.now, rep.LeavesDecayed, step.decayed)
		}
	}
}

// TestConcurrentDecayExplore runs a decay sweep against live explorers
// under -race: the sweep plans under the read lock and applies in short
// write-locked batches, so queries on recent windows proceed while old
// leaves decay.
func TestConcurrentDecayExplore(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 16) // 8 hours
	e := reopen(t, r, Options{Policy: decay.Policy{KeepRaw: 4 * time.Hour}})
	e0 := telco.EpochOf(r.cfg.Start)
	now := e0.Start().Add(8 * time.Hour)
	// Explorers live in the freshest two hours — disjoint from the decay
	// horizon, so their answers must never change mid-sweep.
	recent := telco.NewTimeRange(e0.Start().Add(6*time.Hour), e0.Start().Add(8*time.Hour))
	want, err := e.Explore(Query{Window: recent})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := e.Explore(Query{Window: recent, ExactRows: i%2 == 0})
				if err != nil {
					t.Errorf("explore during decay: %v", err)
					return
				}
				if res.Summary.Rows != want.Summary.Rows {
					t.Errorf("recent window changed mid-decay: %d != %d", res.Summary.Rows, want.Summary.Rows)
					return
				}
			}
		}(i)
	}

	// Apply the decay plan one eviction per batch, maximizing lock
	// handoffs with the explorers.
	if _, err := e.DecayRun(now, DecayBudget{BatchSize: 1}); err != nil {
		t.Errorf("decay: %v", err)
	}
	close(done)
	wg.Wait()

	if st := e.Tree().Stats(); st.DecayedLeaves == 0 {
		t.Fatal("no leaves decayed")
	}
}

// TestRecoveryAfterDecayParity is the recovery acceptance test: an engine
// reopened over a decayed-and-pruned store (including legacy whole-blob
// leaves) serves the same results and does not resurrect pruned leaf
// metadata.
func TestRecoveryAfterDecayParity(t *testing.T) {
	opts := Options{Policy: decay.Policy{KeepRaw: 2 * time.Hour, KeepEpochNodes: 12 * time.Hour}}
	r := newRig(t, opts)
	r.ingestBlobEpochs(t, 2*telco.EpochsPerDay) // day 1 decays and fully collapses

	oldW := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(6*time.Hour))
	newW := telco.NewTimeRange(r.cfg.Start.Add(46*time.Hour), r.cfg.Start.Add(48*time.Hour))
	wantOld, err := r.e.Explore(Query{Window: oldW})
	if err != nil {
		t.Fatal(err)
	}
	wantNew, err := r.e.Explore(Query{Window: newW, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	stBefore := r.e.Tree().Stats()
	metasBefore := len(r.fs.List("/spate/meta/leaf/"))
	if stBefore.Leaves >= 2*telco.EpochsPerDay {
		t.Fatalf("day 1 not pruned: %d leaves", stBefore.Leaves)
	}
	if metasBefore >= 2*telco.EpochsPerDay {
		t.Fatalf("pruned leaf metadata not cleaned: %d metas", metasBefore)
	}

	e2 := reopen(t, r, opts)
	stAfter := e2.Tree().Stats()
	if stAfter.Leaves != stBefore.Leaves || stAfter.DecayedLeaves != stBefore.DecayedLeaves {
		t.Errorf("recovered stats %+v, want %+v (pruned leaves resurrected?)", stAfter, stBefore)
	}
	if metasAfter := len(r.fs.List("/spate/meta/leaf/")); metasAfter != metasBefore {
		t.Errorf("leaf metas %d -> %d across recovery", metasBefore, metasAfter)
	}
	gotOld, err := e2.Explore(Query{Window: oldW})
	if err != nil {
		t.Fatal(err)
	}
	if gotOld.Summary.Rows != wantOld.Summary.Rows {
		t.Errorf("pruned-day rows = %d, want %d", gotOld.Summary.Rows, wantOld.Summary.Rows)
	}
	gotNew, err := e2.Explore(Query{Window: newW, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	if gotNew.Summary.Rows != wantNew.Summary.Rows ||
		gotNew.Rows["CDR"].Len() != wantNew.Rows["CDR"].Len() {
		t.Errorf("recent window: rows %d/%d, want %d/%d",
			gotNew.Summary.Rows, gotNew.Rows["CDR"].Len(),
			wantNew.Summary.Rows, wantNew.Rows["CDR"].Len())
	}
}
