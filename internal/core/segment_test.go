package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"spate/internal/cache"
	"spate/internal/decay"
	"spate/internal/geo"
	"spate/internal/obs"
	"spate/internal/segment/segmenttest"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// commitBlobs ingests snapshots as legacy whole-blob leaves, a form no
// engine writes any more but stores from older writers hold: each table is
// prepared as a segment and re-rendered as a blob before the commit.
func commitBlobs(tb testing.TB, e *Engine, snaps ...*snapshot.Snapshot) {
	tb.Helper()
	for _, sn := range snaps {
		p, err := e.Prepare(context.Background(), sn)
		if err != nil {
			tb.Fatal(err)
		}
		p.rep.CompBytes = 0
		for i := range p.tables {
			enc := &p.tables[i]
			if enc.data, err = segmenttest.Blob(enc.data, e.Codec()); err != nil {
				tb.Fatal(err)
			}
			enc.colNames, enc.colStats = nil, nil
			p.rep.Tables[i].CompBytes = int64(len(enc.data))
			p.rep.CompBytes += int64(len(enc.data))
		}
		if _, err := e.Commit(p); err != nil {
			tb.Fatal(err)
		}
	}
}

// ingestBlobEpochs is ingestEpochs storing legacy whole-blob leaves.
func (r *testRig) ingestBlobEpochs(t *testing.T, n int) {
	t.Helper()
	e0 := telco.EpochOf(r.cfg.Start)
	for i := 0; i < n; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(r.g.CDRTable(s.Epoch))
		s.Add(r.g.NMSTable(s.Epoch))
		commitBlobs(t, r.e, s)
	}
}

// disableChunkCache swaps the engine's chunk cache for one that holds
// nothing, so every scan pays its full inflate. Call it before the engine
// serves anything.
func disableChunkCache(e *Engine) {
	e.chunkCache = cache.New("spate_chunk_cache", "Inflated leaf chunks", -1,
		func(b []byte) int64 { return int64(len(b)) }, e.opts.Obs)
}

// TestSegmentLegacyEquivalence is the format-refactor acceptance gate: the
// same generated world stored as chunked segments (small chunks, so leaves
// really split) and as legacy whole-blob leaves must answer a windowed and
// boxed exploration with bit-identical rows, summaries and cell series.
func TestSegmentLegacyEquivalence(t *testing.T) {
	seg := newRig(t, Options{ChunkSize: 1 << 10})
	leg := newRig(t, Options{})
	seg.ingestEpochs(t, 6)
	leg.ingestBlobEpochs(t, 6)

	queries := []Query{
		{Window: telco.NewTimeRange(seg.cfg.Start.Add(15*time.Minute), seg.cfg.Start.Add(75*time.Minute)),
			ExactRows: true},
		{Window: telco.NewTimeRange(seg.cfg.Start, seg.cfg.Start.Add(2*time.Hour)),
			Box: geo.NewRect(0, 0, 40, 38), ExactRows: true},
		{Window: telco.NewTimeRange(seg.cfg.Start.Add(45*time.Minute), seg.cfg.Start.Add(100*time.Minute)),
			Box: geo.NewRect(10, 10, 50, 50), ExactRows: true, Tables: []string{"CDR"}},
		{Window: telco.NewTimeRange(seg.cfg.Start, seg.cfg.Start.Add(3*time.Hour))},
	}
	for qi, q := range queries {
		rs, err := seg.e.Explore(q)
		if err != nil {
			t.Fatalf("query %d over segments: %v", qi, err)
		}
		rl, err := leg.e.Explore(q)
		if err != nil {
			t.Fatalf("query %d over legacy blobs: %v", qi, err)
		}
		if !reflect.DeepEqual(rs.Summary, rl.Summary) {
			t.Errorf("query %d: summaries differ (segment rows=%d legacy rows=%d)",
				qi, rs.Summary.Rows, rl.Summary.Rows)
		}
		if !reflect.DeepEqual(rs.Cells, rl.Cells) {
			t.Errorf("query %d: cell series differ", qi)
		}
		if len(rs.Rows) != len(rl.Rows) {
			t.Fatalf("query %d: %d row tables vs %d", qi, len(rs.Rows), len(rl.Rows))
		}
		for name, ts := range rs.Rows {
			tl := rl.Rows[name]
			if tl == nil {
				t.Fatalf("query %d: legacy path lost table %s", qi, name)
			}
			if ts.Text() != tl.Text() {
				t.Errorf("query %d: table %s rows differ (%d vs %d)", qi, name, ts.Len(), tl.Len())
			}
		}
	}

	// The SQL access path sees identical per-table row streams. (The order
	// of tables within one leaf follows map iteration, so the comparison
	// keys by table name; leaf order within each table is chronological.)
	w := telco.NewTimeRange(seg.cfg.Start, seg.cfg.Start.Add(2*time.Hour))
	collect := func(e *Engine) map[string]string {
		out := make(map[string]string)
		if err := e.ScanTablesContext(context.Background(), w, nil, func(name string, tab *telco.Table) error {
			out[name] += tab.Text()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got, want := collect(seg.e), collect(leg.e); !reflect.DeepEqual(got, want) {
		t.Errorf("ScanTablesContext row streams differ: %d tables vs %d", len(got), len(want))
	}
}

// TestLegacyLeavesRecoverAndQuery covers the downgrade/upgrade story: a
// store written entirely in the pre-segment whole-blob format must recover
// under a segment-writing engine and keep answering, and new epochs
// appended in segment form must coexist with the old leaves in one window.
func TestLegacyLeavesRecoverAndQuery(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestBlobEpochs(t, 4)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))
	want, err := r.e.Explore(Query{Window: w, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}

	e2 := reopen(t, r, Options{ChunkSize: 1 << 10}) // segment-writing engine
	got, err := e2.Explore(Query{Window: w, ExactRows: true})
	if err != nil {
		t.Fatalf("explore over recovered legacy leaves: %v", err)
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Errorf("recovered summary rows = %d, want %d", got.Summary.Rows, want.Summary.Rows)
	}
	for name, tw := range want.Rows {
		if tg := got.Rows[name]; tg == nil || tg.Text() != tw.Text() {
			t.Errorf("recovered rows for %s differ", name)
		}
	}

	// Append new epochs (segment format) and query across the boundary.
	e0 := telco.EpochOf(r.cfg.Start)
	for i := 4; i < 6; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(r.g.CDRTable(s.Epoch))
		s.Add(r.g.NMSTable(s.Epoch))
		if _, err := e2.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
	mixed := telco.NewTimeRange(r.cfg.Start.Add(90*time.Minute), r.cfg.Start.Add(150*time.Minute))
	res, err := e2.Explore(Query{Window: mixed, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows["CDR"].Len() == 0 || res.ScannedLeaves < 2 {
		t.Errorf("mixed-format window: %d rows over %d leaves", res.Rows["CDR"].Len(), res.ScannedLeaves)
	}
	for _, row := range res.Rows["CDR"].Rows {
		if ts := row.Get(telco.CDRSchema, telco.AttrTS).Time(); !mixed.Contains(ts) {
			t.Fatalf("row ts %v outside window", ts)
		}
	}
}

// TestChunkPruningSkipsChunks verifies that narrow windows and boxes skip
// chunk decompression through the zone maps, and that the chunk cache
// reports its traffic.
func TestChunkPruningSkipsChunks(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, Options{ChunkSize: 1 << 10, Obs: reg})
	r.ingestEpochs(t, 4)

	// A 10-minute slice of a 30-minute epoch: most of the leaf's chunks
	// fall wholly outside the window and must not inflate.
	w := telco.NewTimeRange(r.cfg.Start.Add(10*time.Minute), r.cfg.Start.Add(20*time.Minute))
	res, err := r.e.Explore(Query{Window: w, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.ChunksPrunedZone == 0 {
		t.Errorf("no chunks pruned for a 10-minute window (scanned %d)", res.Profile.ChunksScanned)
	}
	if res.Profile.ChunksScanned == 0 || res.Rows["CDR"].Len() == 0 {
		t.Errorf("scanned=%d rows=%d", res.Profile.ChunksScanned, res.Rows["CDR"].Len())
	}
	for _, row := range res.Rows["CDR"].Rows {
		if ts := row.Get(telco.CDRSchema, telco.AttrTS).Time(); !w.Contains(ts) {
			t.Fatalf("row ts %v outside window", ts)
		}
	}
	if v := reg.Counter("spate_explore_pruned_chunks_total", "").Value(); v == 0 {
		t.Error("pruned-chunks counter not reported")
	}
	if v := reg.Counter("spate_chunk_cache_misses_total", "").Value(); v == 0 {
		t.Error("chunk cache saw no traffic")
	}

	// Repeating the query with a cold result cache serves chunks from the
	// chunk cache: no new decompressed bytes.
	r.e.ClearCache()
	before := reg.Counter("spate_leaf_decompressed_bytes_total", "").Value()
	if _, err := r.e.Explore(Query{Window: w, ExactRows: true, Tables: []string{"CDR"}}); err != nil {
		t.Fatal(err)
	}
	if after := reg.Counter("spate_leaf_decompressed_bytes_total", "").Value(); after != before {
		t.Errorf("repeat query inflated %d new bytes; want chunk-cache hits", after-before)
	}
	if v := reg.Counter("spate_chunk_cache_hits_total", "").Value(); v == 0 {
		t.Error("no chunk cache hits on repeat query")
	}
}

// TestDecayKeepsDisjointCachedResults is the satellite regression: decay
// must only invalidate cached results whose served period intersects a
// decayed node, so a cached query over a disjoint window keeps hitting.
func TestDecayKeepsDisjointCachedResults(t *testing.T) {
	r := newRig(t, Options{Policy: decay.Policy{KeepRaw: 2 * time.Hour}})
	r.ingestEpochs(t, 6) // 3h of data; leaves ending <= 1h decayed already

	// Prime the cache: one window about to decay, one disjoint recent one.
	wOld := telco.NewTimeRange(r.cfg.Start.Add(time.Hour), r.cfg.Start.Add(90*time.Minute))
	wNew := telco.NewTimeRange(r.cfg.Start.Add(2*time.Hour), r.cfg.Start.Add(3*time.Hour))
	if _, err := r.e.Explore(Query{Window: wOld, ExactRows: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.e.Explore(Query{Window: wNew, ExactRows: true}); err != nil {
		t.Fatal(err)
	}

	// Advance time so exactly the [1h, 1h30m) leaf ages out.
	res, err := r.e.DecayRun(r.cfg.Start.Add(3*time.Hour+30*time.Minute), DecayBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesDecayed == 0 {
		t.Fatal("no leaves decayed; the regression cannot trigger")
	}

	hit, err := r.e.Explore(Query{Window: wNew, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Error("cached query over a window disjoint from decay was invalidated")
	}
	stale, err := r.e.Explore(Query{Window: wOld, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if stale.CacheHit {
		t.Error("cached query over the decayed window served stale data")
	}
	if stale.DecayedLeaves == 0 {
		t.Error("fresh answer does not see the decayed leaf")
	}
}
