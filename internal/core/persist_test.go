package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// reopen builds a second engine over the same cluster (recovery path).
func reopen(t *testing.T, r *testRig, opts Options) *Engine {
	t.Helper()
	e, err := Open(r.fs, r.g.CellTable(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRecoveryRebuildsIndex(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, telco.EpochsPerDay+3) // one sealed day + open day

	e2 := reopen(t, r, Options{})
	if got, want := e2.Tree().Len(), r.e.Tree().Len(); got != want {
		t.Fatalf("recovered %d leaves, want %d", got, want)
	}
	// The sealed day's summary must have been reloaded from the DFS.
	days := e2.Tree().NodesAtLevel(index.LevelDay)
	if len(days) != 2 {
		t.Fatalf("recovered %d days", len(days))
	}
	if days[0].Summary == nil {
		t.Fatal("sealed day summary not recovered")
	}
	orig := r.e.Tree().NodesAtLevel(index.LevelDay)[0].Summary
	if days[0].Summary.Rows != orig.Rows {
		t.Errorf("recovered day rows = %d, want %d", days[0].Summary.Rows, orig.Rows)
	}
	// The open day has no summary (it may still grow).
	if days[1].Summary != nil {
		t.Error("open day carries a (possibly stale) summary after recovery")
	}
	// Queries over the recovered store answer identically.
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(4*time.Hour))
	res1, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Summary.Rows != res2.Summary.Rows {
		t.Errorf("recovered query rows = %d, want %d", res2.Summary.Rows, res1.Summary.Rows)
	}
}

// TestRecoveryGraftsSealedDaysInOrder: with two sealed days whose leaves
// are all live, recovery puts each day's leaves under that day's node — one
// node per day, in order — so a window inside the first day answers from
// its leaves and not, beside them, from a childless copy of the day that
// would serve the whole day's summary too.
func TestRecoveryGraftsSealedDaysInOrder(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 2*telco.EpochsPerDay+1) // two sealed days + an open one
	e2 := reopen(t, r, Options{})
	days := e2.Tree().NodesAtLevel(index.LevelDay)
	if len(days) != 3 {
		t.Fatalf("recovered %d day nodes, want 3", len(days))
	}
	for i, d := range days {
		if want := r.cfg.Start.AddDate(0, 0, i); !d.Period.From.Equal(want) || len(d.Children) == 0 {
			t.Errorf("day node %d: %v with %d leaves, want the day of %v with its leaves", i, d.Period, len(d.Children), want)
		}
	}
	w := telco.NewTimeRange(r.cfg.Start.Add(time.Hour), r.cfg.Start.Add(3*time.Hour))
	res1, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Summary.Rows != res2.Summary.Rows || res2.ServedPeriod != w {
		t.Errorf("recovered query: %d rows served for %v, want %d for %v", res2.Summary.Rows, res2.ServedPeriod, res1.Summary.Rows, w)
	}
}

func TestRecoveryContinuesIngestAcrossDaySeal(t *testing.T) {
	r := newRig(t, Options{})
	reports := r.ingestEpochs(t, telco.EpochsPerDay-2) // open day, 2 short

	e2 := reopen(t, r, Options{})
	// Continue the same day and roll it over on the fresh engine.
	e0 := telco.EpochOf(r.cfg.Start)
	var rows int64
	for _, rep := range reports {
		rows += int64(rep.Rows)
	}
	for i := telco.EpochsPerDay - 2; i < telco.EpochsPerDay+1; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(r.g.CDRTable(s.Epoch))
		s.Add(r.g.NMSTable(s.Epoch))
		rep, err := e2.Ingest(s)
		if err != nil {
			t.Fatal(err)
		}
		if i < telco.EpochsPerDay {
			rows += int64(rep.Rows)
		}
	}
	day := e2.Tree().NodesAtLevel(index.LevelDay)[0]
	if day.Summary == nil {
		t.Fatal("day not sealed after rollover on recovered engine")
	}
	// The re-seal must cover pre-recovery epochs (rebuilt from data).
	if day.Summary.Rows != rows {
		t.Errorf("resealed day rows = %d, want %d (pre-recovery rows lost?)", day.Summary.Rows, rows)
	}
}

func TestRecoveryMarksDecayedLeaves(t *testing.T) {
	r := newRig(t, Options{Policy: decay.Policy{KeepRaw: 2 * time.Hour}})
	r.ingestEpochs(t, 8) // 4h: the first leaves decay
	beforeStats := r.e.Tree().Stats()
	if beforeStats.DecayedLeaves == 0 {
		t.Fatal("no decay happened")
	}
	e2 := reopen(t, r, Options{})
	st := e2.Tree().Stats()
	if st.DecayedLeaves != beforeStats.DecayedLeaves {
		t.Errorf("recovered %d decayed leaves, want %d", st.DecayedLeaves, beforeStats.DecayedLeaves)
	}
	if st.Leaves != beforeStats.Leaves {
		t.Errorf("recovered %d leaves, want %d", st.Leaves, beforeStats.Leaves)
	}
}

func TestRecoveryAfterSubtreePrune(t *testing.T) {
	r := newRig(t, Options{Policy: decay.Policy{
		KeepRaw: 2 * time.Hour, KeepEpochNodes: 12 * time.Hour,
	}})
	r.ingestEpochs(t, 2*telco.EpochsPerDay) // day 1 fully collapses
	before := r.e.Tree().Stats()
	e2 := reopen(t, r, Options{})
	after := e2.Tree().Stats()
	if after.Leaves != before.Leaves {
		t.Errorf("recovered %d leaves, want %d (pruned leaves resurrected?)", after.Leaves, before.Leaves)
	}
	// Day 1 aggregates still answer from the persisted day summary.
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(6*time.Hour))
	res, err := e2.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows == 0 {
		t.Error("pruned day lost its aggregates after recovery")
	}
}

// TestRecoveryReadsLegacyGobSummaries: a store whose /spate/index/*
// summaries are gob, the encoding they were persisted in before the binary
// form, recovers and answers the same explorations as the same store with
// binary summaries — day 1 from its persisted summary alone.
func TestRecoveryReadsLegacyGobSummaries(t *testing.T) {
	r := newRig(t, Options{Policy: decay.Policy{
		KeepRaw: 2 * time.Hour, KeepEpochNodes: 12 * time.Hour,
	}})
	r.ingestEpochs(t, 2*telco.EpochsPerDay) // day 1 fully collapses
	current := reopen(t, r, Options{})

	files := r.fs.List("/spate/index/")
	if len(files) == 0 {
		t.Fatal("no persisted summaries")
	}
	for _, fi := range files {
		data, err := r.fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := highlights.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		var legacy bytes.Buffer
		if err := gob.NewEncoder(&legacy).Encode(gobShape(s)); err != nil {
			t.Fatal(err)
		}
		if data[0] == legacy.Bytes()[0] {
			t.Fatalf("%s: persisted as gob, want the binary form", fi.Path)
		}
		if err := r.fs.Delete(fi.Path); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.WriteFile(fi.Path, legacy.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	legacy := reopen(t, r, Options{})

	day := 24 * time.Hour
	for _, w := range []telco.TimeRange{
		telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(day)),
		telco.NewTimeRange(r.cfg.Start.Add(6*time.Hour), r.cfg.Start.Add(day+6*time.Hour)),
		telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*day)),
	} {
		want, err := current.Explore(Query{Window: w})
		if err != nil {
			t.Fatal(err)
		}
		got, err := legacy.Explore(Query{Window: w})
		if err != nil {
			t.Fatal(err)
		}
		if want.Summary.Rows == 0 || !reflect.DeepEqual(got.Summary, want.Summary) ||
			!reflect.DeepEqual(got.Cells, want.Cells) || !reflect.DeepEqual(got.Highlights, want.Highlights) {
			t.Errorf("window %v: the gob store answers %d rows, the binary one %d (or cells/highlights differ)",
				w, got.Summary.Rows, want.Summary.Rows)
		}
	}
}

// legacySummary is the shape summaries were gob-encoded in.
type legacySummary struct {
	Period telco.TimeRange
	Rows   int64
	Num    map[highlights.AttrRef]highlights.Stats
	Cat    map[highlights.AttrRef]map[string]highlights.ValStat
	Cells  map[int64]legacyCell
}

type legacyCell struct {
	Rows int64
	Num  map[highlights.AttrRef]highlights.Stats
}

// gobShape is s in the shape its gob encoding had (the default
// configuration's categorical attributes are the ones it can hold).
func gobShape(s *highlights.Summary) legacySummary {
	attrs := func(a highlights.Attrs) map[highlights.AttrRef]highlights.Stats {
		m := make(map[highlights.AttrRef]highlights.Stats, a.Len())
		for i := 0; i < a.Len(); i++ {
			ref, st := a.At(i)
			m[ref] = st
		}
		return m
	}
	out := legacySummary{Period: s.Period, Rows: s.Rows, Num: attrs(s.Num()),
		Cat: map[highlights.AttrRef]map[string]highlights.ValStat{}, Cells: map[int64]legacyCell{}}
	for _, ref := range highlights.DefaultConfig().Categorical {
		if vals := s.Values(ref); vals != nil {
			out.Cat[ref] = vals
		}
	}
	for i := 0; i < s.Cells(); i++ {
		id, rows, num := s.Cell(i)
		out.Cells[id] = legacyCell{rows, attrs(num)}
	}
	return out
}

func TestFinishIngestMakesStoreReadOnly(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 3)
	r.e.FinishIngest()
	s := snapshot.New(telco.EpochOf(r.cfg.Start) + 10)
	s.Add(r.g.CDRTable(s.Epoch))
	if _, err := r.e.Ingest(s); err == nil {
		t.Fatal("ingest after FinishIngest accepted")
	}
	// A reopened engine accepts new snapshots again.
	e2 := reopen(t, r, Options{})
	if _, err := e2.Ingest(s); err != nil {
		t.Fatalf("recovered engine rejected ingest: %v", err)
	}
}

// TestReopenedFinishedStoreAppendsAndReseals: a store FinishIngest sealed
// reopens with the summaries of its right-most path and answers as the
// finished engine did, highlights included. An append then extends those
// periods: the reopened engine drops their summaries and the finish
// marker, so a later reopen — as after a crash — trusts none of the now
// partial persisted seals, and every answer matches a store that ingested
// the same snapshots without ever finishing. The next day's
// rollover re-seals the extended day, and finishing again makes the
// right-most path trusted once more.
func TestReopenedFinishedStoreAppendsAndReseals(t *testing.T) {
	r := newRig(t, Options{})
	ref := newRig(t, Options{})
	snaps := epochSnapshots(r, 2*telco.EpochsPerDay+2)
	refSnaps := epochSnapshots(ref, len(snaps))
	ingest := func(e *Engine, snaps []*snapshot.Snapshot) {
		t.Helper()
		for _, sn := range snaps {
			if _, err := e.Ingest(sn); err != nil {
				t.Fatal(err)
			}
		}
	}
	day2 := telco.NewTimeRange(r.cfg.Start.Add(24*time.Hour), r.cfg.Start.Add(48*time.Hour))
	queries := []Query{
		{Window: day2},
		{Window: telco.NewTimeRange(r.cfg.Start.Add(20*time.Hour), r.cfg.Start.Add(26*time.Hour))},
		{Window: telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(48*time.Hour)), Box: geo.NewRect(0, 0, 40, 38)},
	}
	// same fails unless got answers every query as want does.
	same := func(what string, got, want *Engine) {
		t.Helper()
		for _, q := range queries {
			g, err := got.Explore(q)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.Explore(q)
			if err != nil {
				t.Fatal(err)
			}
			sameExplore(t, fmt.Sprintf("%s: %v", what, q.Window), g, w)
			if !reflect.DeepEqual(g.Highlights, w.Highlights) {
				t.Errorf("%s: %v: highlights differ", what, q.Window)
			}
		}
	}
	daySummary := func(e *Engine, day int) *highlights.Summary {
		return e.Tree().NodesAtLevel(index.LevelDay)[day].Summary
	}

	// Day 1 sealed, day 2 three epochs in and sealed by FinishIngest.
	ingest(r.e, snaps[:telco.EpochsPerDay+3])
	r.e.FinishIngest()
	e2 := reopen(t, r, Options{})
	if daySummary(e2, 1) == nil {
		t.Fatal("the reopened finished store dropped its last day's summary")
	}
	same("reopened finished store", e2, r.e)

	// Two more epochs into day 2: its summary and the marker go.
	ingest(e2, snaps[telco.EpochsPerDay+3:telco.EpochsPerDay+5])
	if daySummary(e2, 1) != nil {
		t.Error("the append left day 2 its partial summary")
	}
	if r.fs.Exists(finishMarkPath) {
		t.Error("the append left the finish marker")
	}
	ingest(ref.e, refSnaps[:telco.EpochsPerDay+5])
	same("extended store", e2, ref.e)
	e3 := reopen(t, r, Options{})
	if daySummary(e3, 1) != nil {
		t.Error("a reopen trusted day 2's partial persisted summary")
	}
	same("store reopened after the append", e3, ref.e)

	// Day 3's first epoch seals day 2 again, over all its leaves.
	ingest(e3, snaps[telco.EpochsPerDay+5:])
	ingest(ref.e, refSnaps[telco.EpochsPerDay+5:])
	g, _ := daySummary(e3, 1).Encode()
	w, _ := daySummary(ref.e, 1).Encode()
	if !bytes.Equal(g, w) {
		t.Error("the re-sealed day 2 differs from a day sealed once")
	}
	same("re-sealed store", e3, ref.e)
	e3.FinishIngest()
	ref.e.FinishIngest()
	same("finished again", reopen(t, r, Options{}), ref.e)
}

func TestFullProcessRestartRecoversStore(t *testing.T) {
	// End-to-end durability: a brand-new DFS cluster object over the same
	// directory (fsimage recovery) plus a brand-new engine (index
	// recovery) serves the same queries as the original process would.
	dir := t.TempDir()
	fs1, err := dfs.NewCluster(dir, dfs.Config{BlockSize: 1 << 20, DataNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.DefaultConfig(0.002)
	cfg.Antennas = 12
	cfg.Users = 80
	cfg.CDRPerEpoch = 40
	cfg.NMSReportsPerCell = 0.5
	g := gen.New(cfg)
	e1, err := Open(fs1, g.CellTable(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < 5; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(g.CDRTable(s.Epoch))
		s.Add(g.NMSTable(s.Epoch))
		if _, err := e1.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
	w := telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour))
	want, err := e1.Explore(Query{Window: w, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}

	// "Restart the process": fresh cluster + fresh engine over dir.
	fs2, err := dfs.NewCluster(dir, dfs.Config{BlockSize: 1 << 20, DataNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(fs2, g.CellTable(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Tree().Len() != 5 {
		t.Fatalf("recovered %d leaves", e2.Tree().Len())
	}
	got, err := e2.Explore(Query{Window: w, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.Rows != want.Summary.Rows {
		t.Errorf("rows = %d, want %d", got.Summary.Rows, want.Summary.Rows)
	}
	if got.Rows["CDR"].Len() != want.Rows["CDR"].Len() {
		t.Errorf("exact rows = %d, want %d", got.Rows["CDR"].Len(), want.Rows["CDR"].Len())
	}
	// Ingestion continues seamlessly after the restart.
	s := snapshot.New(e0 + 5)
	s.Add(g.CDRTable(s.Epoch))
	s.Add(g.NMSTable(s.Epoch))
	if _, err := e2.Ingest(s); err != nil {
		t.Fatalf("post-restart ingest: %v", err)
	}
}

func TestFreshClusterHasNothingToRecover(t *testing.T) {
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.New(gen.DefaultConfig(0.001))
	e, err := Open(fs, g.CellTable(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Tree().Len() != 0 {
		t.Errorf("fresh engine has %d leaves", e.Tree().Len())
	}
}
