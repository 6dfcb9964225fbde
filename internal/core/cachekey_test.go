package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/segment"
	"spate/internal/telco"
)

// TestChunkCacheKeyPinsVersionAndChunk is the regression guard for the
// cache-key contract: the same leaf chunk inflated under a different
// segment version must never land on the same key, chunks and leaves stay
// apart, and every key keeps the "<ref>#" prefix that decay and compaction
// invalidate by. The key names a chunk, not a projection of it — every
// column subset decodes from the one cached entry.
func TestChunkCacheKeyPinsVersionAndChunk(t *testing.T) {
	keys := []string{
		chunkCacheKey("leaf/42", 2, 0),
		chunkCacheKey("leaf/42", 3, 0),
		chunkCacheKey("leaf/42", 3, 1),
		chunkCacheKey("leaf/42", 3, 11),
		chunkCacheKey("leaf/43", 3, 0),
	}
	seen := make(map[string]string)
	for _, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("key %q aliases %q", k, prev)
		}
		seen[k] = k
	}
	for _, k := range keys[:4] {
		if !strings.HasPrefix(k, "leaf/42#") {
			t.Fatalf("key %q escapes the %q invalidation prefix", k, "leaf/42#")
		}
	}
	if strings.HasPrefix(keys[4], "leaf/42#") {
		t.Fatalf("key %q of another leaf shares the prefix", keys[4])
	}
}

// TestCompactUpgradeKeepsWarmCacheCoherent upgrades a v2 row-major store
// to v3 under a warm chunk cache and never clears it: the version pinned
// in the cache key (plus per-ref prefix invalidation) must keep the old
// decoded text from answering for the rewritten leaves, so every query
// stays bit-for-bit identical across the upgrade.
func TestCompactUpgradeKeepsWarmCacheCoherent(t *testing.T) {
	r := newRig(t, Options{SegmentVersion: segment.RowVersion})
	r.ingestEpochs(t, 4)

	// Recovery under v3 options: the store still holds v2 leaves, but
	// compaction on this engine will rewrite them columnar.
	e := reopen(t, r, Options{})
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))
	wantAgg, wantExact := exploreAll(t, e, w) // warms the cache with v2 chunk text

	rep, err := e.Compact(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsUpgraded == 0 || rep.LeavesRewritten == 0 {
		t.Fatalf("report = %+v, want v2 leaves upgraded", rep)
	}

	// Deliberately no ClearCache: stale entries must be unreachable.
	gotAgg, gotExact := exploreAll(t, e, w)
	if gotAgg.Summary.Rows != wantAgg.Summary.Rows {
		t.Errorf("aggregate rows = %d, want %d", gotAgg.Summary.Rows, wantAgg.Summary.Rows)
	}
	sameRows(t, wantExact, gotExact)

	// The sweep converged: a second pass finds every leaf already v3.
	rep2, err := e.Compact(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SegmentsUpgraded != 0 {
		t.Errorf("second sweep upgraded %d segments", rep2.SegmentsUpgraded)
	}
}

// TestSpecScanSubsetsShareOneCacheEntry runs two projected scans with
// different column subsets back-to-back. Both decode from the one cached
// entry per chunk — the second projection is served from the cache the
// first one filled — and neither may surface the other's columns: each
// scan's tables carry exactly its own projection as their schema.
func TestSpecScanSubsetsShareOneCacheEntry(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 3)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(90*time.Minute))

	// scan returns one column's values, asserting the layout on the way:
	// a projected scan hands out ts plus the requested column, nothing else.
	scan := func(ctx context.Context, spec *ScanSpec, col string) (vals []string) {
		err := r.e.ScanTablesSpec(ctx, w, geo.Rect{}, []string{"CDR"}, spec, func(_ string, tab *telco.Table) error {
			if spec != nil {
				if got := strings.Join(tab.Schema.FieldNames(), ","); got != "ts,"+col {
					t.Fatalf("projection %v came out as (%s), want (ts,%s)", spec.Columns, got, col)
				}
			}
			i := tab.Schema.FieldIndex(col)
			for _, row := range tab.Rows {
				if len(row) != tab.Schema.NumFields() {
					t.Fatalf("row of %d values under a %d-column schema", len(row), tab.Schema.NumFields())
				}
				vals = append(vals, row[i].Format())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	bg := context.Background()
	// Ground truth from a full-row scan on a cold cache.
	wantCallers := scan(bg, nil, telco.AttrCaller)
	wantDurations := scan(bg, nil, telco.AttrDuration)
	if len(wantCallers) == 0 {
		t.Fatal("full scan returned no rows")
	}
	r.e.chunkCache.DropIf(func(string, []byte) bool { return true }) // back to a cold chunk cache

	sameStrings := func(what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s row %d = %q, want %q", what, i, got[i], want[i])
			}
		}
	}

	// Projection A decodes caller on a cold cache and pays the misses;
	// projection B then decodes duration from the entries A installed.
	specA := &ScanSpec{Columns: []string{telco.AttrCaller}}
	specB := &ScanSpec{Columns: []string{telco.AttrDuration}}
	ctxA, profA := ContextWithProfile(bg)
	sameStrings("projection A caller", scan(ctxA, specA, telco.AttrCaller), wantCallers)
	if profA.CacheMisses == 0 || profA.CacheHits != 0 {
		t.Fatalf("cold projected scan: hits=%d misses=%d, want all misses", profA.CacheHits, profA.CacheMisses)
	}
	entries := r.e.chunkCache.Stats().Entries
	ctxB, profB := ContextWithProfile(bg)
	sameStrings("projection B duration", scan(ctxB, specB, telco.AttrDuration), wantDurations)
	if profB.CacheHits != profA.CacheMisses || profB.CacheMisses != 0 {
		t.Fatalf("second projection: hits=%d misses=%d, want %d hits off the first projection's entries",
			profB.CacheHits, profB.CacheMisses, profA.CacheMisses)
	}
	if profB.InflatedBytes != 0 || profB.DFSReads != 0 {
		t.Fatalf("second projection inflated %d bytes in %d reads, want none", profB.InflatedBytes, profB.DFSReads)
	}
	if got := r.e.chunkCache.Stats().Entries; got != entries {
		t.Fatalf("second projection grew the cache from %d to %d entries", entries, got)
	}
	sameStrings("projection A caller, warm", scan(bg, specA, telco.AttrCaller), wantCallers)
}

// TestResultCacheKeyIsExact: two boxes whose max X edges differ by 0.2 m
// around a cell that has data — less than the metre a corner printed in km
// to three decimals keeps — are two queries: asked one after the other on
// one engine, the second answers what it answers alone on a fresh engine,
// not the first's cells.
func TestResultCacheKeyIsExact(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 2)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(time.Hour))
	all, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	// A cell whose X, 0.1 m either side, prints the same to the metre.
	const d = 0.0001 // km
	var at *geo.Point
	for _, c := range all.Cells {
		if fmt.Sprintf("%.3f", c.Loc.X-d) == fmt.Sprintf("%.3f", c.Loc.X+d) {
			at = &c.Loc
			break
		}
	}
	if at == nil {
		t.Fatal("no cell's X rounds the same either side")
	}
	short := geo.NewRect(at.X-4*d, at.Y-4*d, at.X-d, at.Y+4*d)
	past := geo.NewRect(at.X-4*d, at.Y-4*d, at.X+d, at.Y+4*d)
	if _, err := r.e.Explore(Query{Window: w, Box: short}); err != nil {
		t.Fatal(err)
	}
	got, err := r.e.Explore(Query{Window: w, Box: past})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := reopen(t, r, Options{}).Explore(Query{Window: w, Box: past})
	if err != nil {
		t.Fatal(err)
	}
	if len(alone.Cells) == 0 || len(got.Cells) != len(alone.Cells) || got.Summary.Rows != alone.Summary.Rows {
		t.Errorf("box 0.1 m past the cell after one 0.1 m short: %d cells, %d rows (cache hit %v); alone %d cells, %d rows",
			len(got.Cells), got.Summary.Rows, got.CacheHit, len(alone.Cells), alone.Summary.Rows)
	}

	// Windows a nanosecond apart are two queries as well.
	later := w
	later.From = later.From.Add(time.Nanosecond)
	if (Query{Window: w}).CacheKey() == (Query{Window: later}).CacheKey() {
		t.Error("windows a nanosecond apart share a result-cache key")
	}
}

// TestQueryKeysNeverLookLikeLeafKeys: whatever a query holds — no
// attributes, attributes with any table name, any box — its result-cache key
// does not start with leafKeyPrefix, so no query is answered with a cached
// leaf summary or evicts one by name.
func TestQueryKeysNeverLookLikeLeafKeys(t *testing.T) {
	queries := []Query{
		{},
		{Attrs: []highlights.AttrRef{{Table: "|leaf|", Attr: "x"}}},
		{Attrs: []highlights.AttrRef{{Table: "", Attr: "leaf|"}}},
		{Box: geo.NewRect(-1, -2, 3, 4), Fast: true},
		{Tables: []string{"|leaf|"}, ExactRows: true},
	}
	for _, q := range queries {
		if key := q.CacheKey(); strings.HasPrefix(key, leafKeyPrefix) {
			t.Errorf("query %+v has key %q", q, key)
		}
	}
}
