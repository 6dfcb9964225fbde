package core

import (
	"testing"
	"time"

	"spate/internal/compress"
	_ "spate/internal/compress/all"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// testRig is a small generated world plus an engine over a temp DFS.
type testRig struct {
	g   *gen.Generator
	e   *Engine
	fs  *dfs.Cluster
	cfg gen.Config
}

func newRig(t *testing.T, opts Options) *testRig {
	t.Helper()
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas = 30
	cfg.Users = 300
	cfg.CDRPerEpoch = 120
	cfg.NMSReportsPerCell = 0.8
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(fs, g.CellTable(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{g: g, e: e, fs: fs, cfg: cfg}
}

// ingestEpochs feeds n epochs starting at the config start time.
func (r *testRig) ingestEpochs(t *testing.T, n int) []IngestReport {
	t.Helper()
	e0 := telco.EpochOf(r.cfg.Start)
	reps := make([]IngestReport, 0, n)
	for i := 0; i < n; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(r.g.CDRTable(s.Epoch))
		s.Add(r.g.NMSTable(s.Epoch))
		rep, err := r.e.Ingest(s)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

func TestIngestStoresCompressedSnapshots(t *testing.T) {
	r := newRig(t, Options{})
	reps := r.ingestEpochs(t, 4)
	for _, rep := range reps {
		if rep.Rows == 0 || rep.RawBytes == 0 || rep.CompBytes == 0 {
			t.Fatalf("report = %+v", rep)
		}
		if rep.CompBytes >= rep.RawBytes {
			t.Errorf("no compression: %d >= %d", rep.CompBytes, rep.RawBytes)
		}
	}
	if r.e.Tree().Len() != 4 {
		t.Errorf("tree has %d leaves", r.e.Tree().Len())
	}
	files := r.fs.List("/spate/data/")
	if len(files) != 8 { // CDR+NMS per epoch
		t.Errorf("stored %d files, want 8", len(files))
	}
	sp := r.e.Space()
	if sp.O1 <= 0 {
		t.Errorf("O1 = %.2f", sp.O1)
	}
	if sp.CompBytes >= sp.RawBytes {
		t.Errorf("Sc %d >= S %d: storage layer did not compress", sp.CompBytes, sp.RawBytes)
	}
}

func TestIngestRejectsReplays(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 1)
	s := snapshot.New(telco.EpochOf(r.cfg.Start))
	s.Add(r.g.CDRTable(s.Epoch))
	if _, err := r.e.Ingest(s); err == nil {
		t.Error("replayed epoch accepted")
	}
}

func TestExploreAggregatesWholeRegion(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 6)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(3*time.Hour))
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows == 0 {
		t.Fatal("empty summary")
	}
	if len(res.Cells) == 0 {
		t.Fatal("no cell series")
	}
	if res.CoveringLevel != index.LevelDay {
		t.Errorf("covering level = %v, want day", res.CoveringLevel)
	}
	// Repeating the query hits the cache.
	res2, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Error("second identical query missed cache")
	}
}

func TestExploreSpatialRestriction(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 4)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))
	all, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	// A box over a sub-region must see a subset of rows and cells.
	box := geo.NewRect(0, 0, 40, 38)
	sub, err := r.e.Explore(Query{Window: w, Box: box})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Summary.Rows == 0 || sub.Summary.Rows >= all.Summary.Rows {
		t.Errorf("box rows = %d vs all %d", sub.Summary.Rows, all.Summary.Rows)
	}
	for _, cs := range sub.Cells {
		if !box.Contains(cs.Loc) {
			t.Errorf("cell %d at %v outside box", cs.CellID, cs.Loc)
		}
	}
	// Empty box yields empty aggregates but not an error.
	far := geo.NewRect(1000, 1000, 1001, 1001)
	empty, err := r.e.Explore(Query{Window: w, Box: far})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Summary.Rows != 0 || len(empty.Cells) != 0 {
		t.Errorf("far box rows = %d", empty.Summary.Rows)
	}
}

func TestExploreExactRows(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 4)
	// Window cuts mid-epoch: rows outside it are filtered.
	w := telco.NewTimeRange(r.cfg.Start.Add(15*time.Minute), r.cfg.Start.Add(75*time.Minute))
	res, err := r.e.Explore(Query{Window: w, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Rows["CDR"]
	if tab == nil || tab.Len() == 0 {
		t.Fatal("no exact rows")
	}
	if res.Rows["NMS"] != nil {
		t.Error("table filter ignored")
	}
	for _, row := range tab.Rows {
		ts := row.Get(telco.CDRSchema, telco.AttrTS).Time()
		if !w.Contains(ts) {
			t.Fatalf("row ts %v outside window", ts)
		}
	}
	if res.ScannedLeaves == 0 {
		t.Error("no leaves scanned")
	}
}

func TestExploreExactRowsWithBox(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 2)
	box := geo.NewRect(0, 0, 40, 38)
	inBox := map[int64]bool{}
	for _, id := range r.e.Cells().inBox(box) {
		inBox[id] = true
	}
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(time.Hour))
	res, err := r.e.Explore(Query{Window: w, Box: box, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows["CDR"].Rows {
		if !inBox[row.Get(telco.CDRSchema, telco.AttrCellID).Int64()] {
			t.Fatal("row outside box returned")
		}
	}
}

// TestEmptyBoxInflatesNoChunk: an exact-row query whose box holds no cell
// skips every chunk by its cell sketch before inflating it — what a
// per-leaf spatial index would have saved, at chunk grain — and returns
// no rows, on the sealed day and the open one alike.
func TestEmptyBoxInflatesNoChunk(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, telco.EpochsPerDay+3)
	empty := geo.NewRect(1000, 1000, 1010, 1010)
	if n := len(r.e.Cells().inBox(empty)); n != 0 {
		t.Fatalf("the box holds %d cells", n)
	}
	for _, w := range []telco.TimeRange{
		telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour)),
		telco.NewTimeRange(r.cfg.Start.Add(23*time.Hour), r.cfg.Start.Add(25*time.Hour)),
	} {
		res, err := r.e.Explore(Query{Window: w, Box: empty, ExactRows: true})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		if p.ChunksScanned != 0 || p.InflatedBytes != 0 || p.ChunksPrunedBloom == 0 {
			t.Errorf("%v: %d chunks scanned, %d bytes inflated, %d pruned by cell sketch; want none, none, some",
				w, p.ChunksScanned, p.InflatedBytes, p.ChunksPrunedBloom)
		}
		for name, tab := range res.Rows {
			if tab.Len() != 0 {
				t.Errorf("%v: %d %s rows outside every cell", w, tab.Len(), name)
			}
		}
	}
}

func TestDayRollupSealsSummaries(t *testing.T) {
	r := newRig(t, Options{})
	reps := r.ingestEpochs(t, telco.EpochsPerDay+1)
	last := reps[len(reps)-1]
	if last.CompletedNodes != 1 {
		t.Fatalf("day rollover completed %d nodes", last.CompletedNodes)
	}
	days := r.e.Tree().NodesAtLevel(index.LevelDay)
	if days[0].Summary == nil {
		t.Fatal("completed day has no summary")
	}
	// The day summary equals the total rows ingested for that day.
	var want int64
	for _, rep := range reps[:telco.EpochsPerDay] {
		want += int64(rep.Rows)
	}
	if days[0].Summary.Rows != want {
		t.Errorf("day summary rows = %d, want %d", days[0].Summary.Rows, want)
	}
	// Sealed-day leaves drop their ephemeral summaries (paper keeps
	// highlights at day/month/year only) and keep only their encoding.
	for _, l := range days[0].Children {
		if l.Summary != nil || l.KeptSummary == nil {
			t.Errorf("sealed-day leaf: summary %v, %d kept bytes", l.Summary != nil, len(l.KeptSummary))
		}
	}
	// A sub-day window over the sealed day still answers by decoding the
	// leaves' kept encodings, with no decompression.
	w := telco.NewTimeRange(r.cfg.Start.Add(time.Hour), r.cfg.Start.Add(2*time.Hour))
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows == 0 || res.Profile.LeavesDecoded != 2 || res.ScannedLeaves != 0 {
		t.Errorf("sealed-day sub-window: rows=%d decoded=%d scanned=%d", res.Summary.Rows, res.Profile.LeavesDecoded, res.ScannedLeaves)
	}
	// A reopened store keeps no encoding: it rebuilds the leaves from the
	// compressed data, to the same answer.
	reopened, err := reopen(t, r, Options{}).Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Summary.Rows != res.Summary.Rows || reopened.ScannedLeaves != 2 {
		t.Errorf("reopened sealed-day sub-window: rows=%d scanned=%d, want %d and 2", reopened.Summary.Rows, reopened.ScannedLeaves, res.Summary.Rows)
	}
	// A window covering the whole day uses the day summary in O(1).
	dayW := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.AddDate(0, 0, 1))
	resDay, err := r.e.Explore(Query{Window: dayW})
	if err != nil {
		t.Fatal(err)
	}
	if resDay.ScannedLeaves != 0 {
		t.Errorf("full-day window scanned %d leaves instead of using the day summary", resDay.ScannedLeaves)
	}
	if resDay.Summary.Rows < want {
		t.Errorf("full-day rows = %d, want >= %d", resDay.Summary.Rows, want)
	}
}

func TestDecayFreesSpaceButKeepsAggregates(t *testing.T) {
	r := newRig(t, Options{
		Policy: decay.Policy{KeepRaw: 2 * time.Hour},
	})
	r.ingestEpochs(t, 10) // 5 hours
	sp := r.e.Space()
	st := r.e.Tree().Stats()
	if st.DecayedLeaves == 0 {
		t.Fatal("no leaves decayed under 2h policy after 5h of ingest")
	}
	// Physical storage excludes decayed snapshots.
	var files int
	for _, f := range r.fs.List("/spate/data/") {
		_ = f
		files++
	}
	if files >= 20 {
		t.Errorf("decay did not delete files: %d remain", files)
	}
	// Aggregate exploration over the decayed window still answers.
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(time.Hour))
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows == 0 {
		t.Error("decayed window lost its aggregates")
	}
	if res.DecayedLeaves == 0 {
		t.Error("result does not mark decayed leaves")
	}
	// Exact rows over the decayed window are (partially) gone.
	resEx, err := r.e.Explore(Query{Window: w, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	if resEx.ScannedLeaves != 0 {
		t.Errorf("decayed leaves still scanned: %d", resEx.ScannedLeaves)
	}
	_ = sp
}

func TestDecayedSealedDayServesDaySummaryPrefetch(t *testing.T) {
	// A sub-day window over a sealed, fully decayed day must fall back to
	// the day summary (serving a larger period — the implicit prefetch).
	r := newRig(t, Options{Policy: decay.Policy{KeepRaw: 3 * time.Hour}})
	r.ingestEpochs(t, telco.EpochsPerDay+6) // day 1 sealed, decayed well past horizon
	w := telco.NewTimeRange(r.cfg.Start.Add(2*time.Hour), r.cfg.Start.Add(8*time.Hour))
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows == 0 {
		t.Fatal("decayed sealed day lost aggregates for sub-day window")
	}
	// The served summary covers the whole day (prefetch), so it reports at
	// least the window's true rows.
	day := r.e.Tree().NodesAtLevel(index.LevelDay)[0]
	if res.Summary.Rows != day.Summary.Rows {
		t.Errorf("prefetch rows = %d, want day rows %d", res.Summary.Rows, day.Summary.Rows)
	}
}

func TestFinishIngestSealsOpenPeriods(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 3)
	r.e.FinishIngest()
	for _, l := range []index.Level{index.LevelDay, index.LevelMonth, index.LevelYear} {
		nodes := r.e.Tree().NodesAtLevel(l)
		if len(nodes) == 0 || nodes[len(nodes)-1].Summary == nil {
			t.Errorf("%v not sealed", l)
		}
	}
}

func TestDictionaryTrainingSwapsCodec(t *testing.T) {
	zc, err := compress.Lookup("zstd")
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, Options{Codec: zc, TrainDictionary: true})
	r.ingestEpochs(t, 4)
	if r.e.Codec().Name() != "zstd" {
		t.Fatalf("codec = %s", r.e.Codec().Name())
	}
	if !r.fs.Exists("/spate/meta/zstd-dict") {
		t.Error("trained dictionary not persisted")
	}
	// Old and new snapshots must both decode through exact-row queries.
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))
	res, err := r.e.Explore(Query{Window: w, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows["CDR"].Len() == 0 {
		t.Error("no rows across training boundary")
	}
}

func TestHighlightsSurfaceRareEvents(t *testing.T) {
	r := newRig(t, Options{Theta: map[index.Level]float64{
		index.LevelDay: 0.05, index.LevelEpoch: 0.05, index.LevelRoot: 0.05,
		index.LevelMonth: 0.05, index.LevelYear: 0.05,
	}})
	r.ingestEpochs(t, 4)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	// The generator makes DROP/FAIL results rare (<5%), so they surface.
	foundRare := false
	for _, h := range res.Highlights {
		if h.Kind == highlights.Categorical && (h.Value == "FAIL" || h.Value == "DROP" || h.Value == "BUSY") {
			foundRare = true
			if h.Frequency >= 0.05 {
				t.Errorf("highlight %q frequency %.3f above theta", h.Value, h.Frequency)
			}
		}
		if h.Value == "OK" {
			t.Error("dominant value OK reported as highlight")
		}
	}
	if !foundRare {
		t.Error("no rare call results surfaced as highlights")
	}
}

func TestFastPathServesCoveringSummary(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, telco.EpochsPerDay+2)
	r.e.FinishIngest()
	// Sub-day window over the sealed day: the fast path serves the whole
	// day from its summary, with zero decompression.
	w := telco.NewTimeRange(r.cfg.Start.Add(3*time.Hour), r.cfg.Start.Add(5*time.Hour))
	fast, err := r.e.Explore(Query{Window: w, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast.ScannedLeaves != 0 {
		t.Errorf("fast path scanned %d leaves", fast.ScannedLeaves)
	}
	if !fast.ServedPeriod.Covers(w) || fast.ServedPeriod.Duration() <= w.Duration() {
		t.Errorf("served period = %v, want the covering day", fast.ServedPeriod)
	}
	day := r.e.Tree().NodesAtLevel(index.LevelDay)[0]
	if fast.Summary.Rows != day.Summary.Rows {
		t.Errorf("fast rows = %d, want day rows %d", fast.Summary.Rows, day.Summary.Rows)
	}
	// The exact path for the same window reports fewer rows over exactly w.
	exact, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Summary.Rows >= fast.Summary.Rows {
		t.Errorf("exact rows %d >= fast rows %d", exact.Summary.Rows, fast.Summary.Rows)
	}
	if exact.ServedPeriod != w {
		t.Errorf("exact served period = %v, want %v", exact.ServedPeriod, w)
	}
	if exact.Profile.LeavesDecoded == 0 || exact.ScannedLeaves != 0 {
		t.Errorf("exact path decoded %d and rebuilt %d leaves; it should decode the window's edges", exact.Profile.LeavesDecoded, exact.ScannedLeaves)
	}
}

func TestConcurrentIngestAndExplore(t *testing.T) {
	// One ingester plus several queriers, per the engine's contract.
	r := newRig(t, Options{})
	r.ingestEpochs(t, 2)
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for q := 0; q < 3; q++ {
		go func() {
			w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(24*time.Hour))
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if _, err := r.e.Explore(Query{Window: w, ExactRows: true}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	e0 := telco.EpochOf(r.cfg.Start)
	for i := 2; i < 12; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(r.g.CDRTable(s.Epoch))
		s.Add(r.g.NMSTable(s.Epoch))
		if _, err := r.e.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptedLeafSurfacesError(t *testing.T) {
	// With replication 1, a corrupted block has no healthy replica: the
	// exact-row path must fail loudly, not return wrong data.
	cfg := gen.DefaultConfig(0.002)
	cfg.Antennas = 10
	cfg.Users = 60
	cfg.CDRPerEpoch = 40
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(fs, g.CellTable(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := snapshot.New(telco.EpochOf(cfg.Start))
	s.Add(g.CDRTable(s.Epoch))
	if _, err := e.Ingest(s); err != nil {
		t.Fatal(err)
	}
	path := snapshot.DataPath(s.Epoch, "CDR")
	if _, err := fs.CorruptBlock(path); err != nil {
		t.Fatal(err)
	}
	w := telco.NewTimeRange(cfg.Start, cfg.Start.Add(time.Hour))
	if _, err := e.Explore(Query{Window: w, ExactRows: true}); err == nil {
		t.Error("exact rows over a corrupted leaf succeeded")
	}
}

func TestOpenValidatesCellTable(t *testing.T) {
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := telco.NewTable(telco.NMSSchema) // wrong schema
	if _, err := Open(fs, bad, Options{}); err == nil {
		t.Error("Open accepted a non-CELL table")
	}
}

// TestOpenRefusesNegativeChunkSize: a negative chunk size once selected
// legacy whole-blob leaves, which no engine writes any more; Open refuses
// it rather than silently writing segments.
func TestOpenRefusesNegativeChunkSize(t *testing.T) {
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.New(gen.DefaultConfig(0.001))
	if _, err := Open(fs, g.CellTable(), Options{ChunkSize: -1}); err == nil {
		t.Error("Open accepted a negative chunk size")
	}
}

func TestExploreOnEmptyEngine(t *testing.T) {
	r := newRig(t, Options{})
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(time.Hour))
	if _, err := r.e.Explore(Query{Window: w}); err == nil {
		t.Error("Explore on empty engine succeeded")
	}
}

func TestInvalidPolicyRejectedAtOpen(t *testing.T) {
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.New(gen.DefaultConfig(0.001))
	_, err = Open(fs, g.CellTable(), Options{
		Policy: decay.Policy{KeepRaw: time.Hour, KeepDayNodes: time.Minute},
	})
	if err == nil {
		t.Error("invalid policy accepted")
	}
}
