package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"spate/internal/decay"
	"spate/internal/index"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// keptSummaries copies the sealed leaves' kept encodings, by epoch.
func keptSummaries(e *Engine) map[telco.Epoch][]byte {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[telco.Epoch][]byte)
	for _, n := range e.tree.NodesAtLevel(index.LevelEpoch) {
		if n.KeptSummary != nil {
			out[n.Epoch] = bytes.Clone(n.KeptSummary)
		}
	}
	return out
}

// sameExplore fails unless two answers' summaries encode alike and their
// cells hold the same rows.
func sameExplore(t *testing.T, what string, got, want *Result) {
	t.Helper()
	g, _ := got.Summary.Encode()
	w, _ := want.Summary.Encode()
	if !bytes.Equal(g, w) || got.ServedPeriod != want.ServedPeriod || len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: %d rows over %v in %d cells, want %d over %v in %d", what,
			got.Summary.Rows, got.ServedPeriod, len(got.Cells), want.Summary.Rows, want.ServedPeriod, len(want.Cells))
	}
	for i := range got.Cells {
		if got.Cells[i].CellID != want.Cells[i].CellID || got.Cells[i].Rows != want.Cells[i].Rows {
			t.Fatalf("%s: cell %d differs", what, i)
		}
	}
}

// TestDecayDropsKeptSummaries: decay takes a sealed leaf's kept encoding
// with its data, and leaves the others' alone. A window wholly inside the
// decayed hours answers from the day's summary, and one across the decay
// horizon from the live leaves alone — exactly what a store reopened over
// the same DFS answers, which has kept no encoding and so plans the decayed
// leaves as an engine always has.
func TestDecayDropsKeptSummaries(t *testing.T) {
	r := newRig(t, Options{Policy: decay.Policy{KeepRaw: 48 * time.Hour}})
	r.ingestEpochs(t, telco.EpochsPerDay+2) // day 1 sealed, nothing aged yet
	before := keptSummaries(r.e)
	if len(before) != telco.EpochsPerDay {
		t.Fatalf("%d sealed leaves keep an encoding, want %d", len(before), telco.EpochsPerDay)
	}
	keptBytes := r.e.Space().KeptSummaryBytes
	rep, err := r.e.DecayRun(r.cfg.Start.Add(48*time.Hour+4*time.Hour), DecayBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeavesDecayed != 8 {
		t.Fatalf("decayed %d leaves, want the first 4 hours' 8", rep.LeavesDecayed)
	}
	after := keptSummaries(r.e)
	var freed int64
	for epoch, enc := range before {
		if epoch < telco.EpochOf(r.cfg.Start)+8 {
			if after[epoch] != nil {
				t.Errorf("decayed leaf %v keeps its encoding", epoch)
			}
			freed += int64(len(enc))
		} else if !bytes.Equal(after[epoch], enc) {
			t.Errorf("live leaf %v lost or changed its encoding", epoch)
		}
	}
	if got := r.e.Space().KeptSummaryBytes; got != keptBytes-freed {
		t.Errorf("kept_summary_bytes %d after decay, want %d", got, keptBytes-freed)
	}

	day := r.e.Tree().NodesAtLevel(index.LevelDay)[0]
	reopened := reopen(t, r, Options{})
	for _, w := range []telco.TimeRange{
		telco.NewTimeRange(r.cfg.Start.Add(time.Hour), r.cfg.Start.Add(3*time.Hour)),
		telco.NewTimeRange(r.cfg.Start.Add(3*time.Hour), r.cfg.Start.Add(7*time.Hour)),
	} {
		got, err := r.e.Explore(Query{Window: w})
		if err != nil {
			t.Fatal(err)
		}
		want, err := reopened.Explore(Query{Window: w})
		if err != nil {
			t.Fatal(err)
		}
		sameExplore(t, fmt.Sprint(w), got, want)
		if got.DecayedLeaves == 0 {
			t.Errorf("%v: no decayed leaf counted", w)
		}
		if w.To.Before(r.cfg.Start.Add(4*time.Hour)) && (got.Summary.Rows != day.Summary.Rows || got.Profile.LeavesDecoded != 0) {
			t.Errorf("%v: %d rows decoding %d leaves, want the day's summary's %d", w, got.Summary.Rows, got.Profile.LeavesDecoded, day.Summary.Rows)
		}
	}
}

// TestCompactionKeepsKeptSummaries: compaction rewrites leaves' data but
// not what they say, so it changes neither a sealed leaf's kept encoding
// nor an answer decoded from it, whether Explore or a shard's ExploreParts
// asks.
func TestCompactionKeepsKeptSummaries(t *testing.T) {
	r := newRig(t, Options{ChunkSize: 256}) // many chunks a leaf: compaction merges them
	r.ingestEpochs(t, telco.EpochsPerDay+2)
	windows := []telco.TimeRange{
		telco.NewTimeRange(r.cfg.Start.Add(50*time.Minute), r.cfg.Start.Add(5*time.Hour)),
		telco.NewTimeRange(r.cfg.Start.Add(20*time.Hour), r.cfg.Start.Add(25*time.Hour)),
	}
	explore := func() ([]*Result, []partsRun) {
		r.e.ClearCache()
		var res []*Result
		var parts []partsRun
		for _, w := range windows {
			got, err := r.e.Explore(Query{Window: w})
			if err != nil {
				t.Fatal(err)
			}
			if got.Profile.LeavesDecoded == 0 || got.ScannedLeaves != 0 {
				t.Fatalf("%v: %d leaves decoded, %d rebuilt", w, got.Profile.LeavesDecoded, got.ScannedLeaves)
			}
			res = append(res, got)
			parts = append(parts, exploreParts(t, r.e, w))
		}
		return res, parts
	}
	kept := keptSummaries(r.e)
	res, parts := explore()
	rep, err := r.e.Compact(context.Background(), CompactOptions{ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeavesRewritten == 0 {
		t.Fatalf("compaction rewrote nothing: %+v", rep)
	}
	after := keptSummaries(r.e)
	if len(after) != len(kept) {
		t.Fatalf("%d leaves keep an encoding after compaction, %d before", len(after), len(kept))
	}
	for epoch, enc := range kept {
		if !bytes.Equal(after[epoch], enc) {
			t.Errorf("leaf %v: compaction changed its kept encoding", epoch)
		}
	}
	res2, parts2 := explore()
	for i, w := range windows {
		sameExplore(t, fmt.Sprint(w), res2[i], res[i])
		sameParts(t, fmt.Sprint(w), parts2[i], parts[i])
	}
}

// TestKeptSummaryRace: explorations of sealed and open leaves race the day
// seal, which keeps the leaves' encodings, decay, which drops some, and the
// refill of a reopened store's leaves, which rebuilds and keeps theirs.
// Under -race it pins the locking of Node.KeptSummary; after the dust
// settles, the answers are what a fresh reopen rebuilds.
func TestKeptSummaryRace(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, telco.EpochsPerDay-2) // the day still open
	e := reopen(t, r, Options{Policy: decay.Policy{KeepRaw: 24 * time.Hour}})
	windows := []telco.TimeRange{
		telco.NewTimeRange(r.cfg.Start.Add(10*time.Minute), r.cfg.Start.Add(3*time.Hour)),
		telco.NewTimeRange(r.cfg.Start.Add(2*time.Hour), r.cfg.Start.Add(9*time.Hour)),
		telco.NewTimeRange(r.cfg.Start.Add(20*time.Hour), r.cfg.Start.Add(26*time.Hour)),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := windows[i%len(windows)]
				var err error
				if g%2 == 0 {
					_, err = e.Explore(Query{Window: w})
				} else {
					_, _, err = e.ExploreParts(context.Background(), w)
				}
				if err != nil {
					errs <- err
					return
				}
				_ = e.Space()
			}
		}(g)
	}
	e0 := telco.EpochOf(r.cfg.Start)
	for i := telco.EpochsPerDay - 2; i < telco.EpochsPerDay+2; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(r.g.CDRTable(s.Epoch))
		s.Add(r.g.NMSTable(s.Epoch))
		if _, err := e.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.DecayRun(r.cfg.Start.Add(26*time.Hour), DecayBudget{BatchSize: 1}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.ClearCache()
	fresh := reopen(t, r, Options{})
	for _, w := range windows {
		got, err := e.Explore(Query{Window: w})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Explore(Query{Window: w})
		if err != nil {
			t.Fatal(err)
		}
		sameExplore(t, fmt.Sprint(w), got, want)
	}
}
