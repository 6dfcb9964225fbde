package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"spate/internal/compress"
	"spate/internal/index"
	"spate/internal/segment"
	"spate/internal/telco"
)

// exploreAll captures an aggregate answer plus exact rows for one window.
func exploreAll(t *testing.T, e *Engine, w telco.TimeRange) (*Result, *Result) {
	t.Helper()
	agg, err := e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.Explore(Query{Window: w, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}
	return agg, exact
}

// sameRows compares exact-row answers table by table, row by row.
func sameRows(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("tables %d != %d", len(got.Rows), len(want.Rows))
	}
	for name, wt := range want.Rows {
		gt := got.Rows[name]
		if gt == nil || gt.Len() != wt.Len() {
			t.Fatalf("%s: rows differ (want %d)", name, wt.Len())
		}
		for i := range wt.Rows {
			if !reflect.DeepEqual(wt.Rows[i], gt.Rows[i]) {
				t.Fatalf("%s row %d differs after compaction", name, i)
			}
		}
	}
}

// TestCompactConvertsLegacyBlobs is the compaction acceptance test: on a
// store of legacy whole-blob leaves under zstd, a sweep converts every blob
// to a chunked column segment, shrinks the stored bytes, and leaves every
// query answer bit-for-bit identical — including after recovery.
func TestCompactConvertsLegacyBlobs(t *testing.T) {
	zc, err := compress.Lookup("zstd")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Codec: zc}
	r := newRig(t, opts)
	r.ingestBlobEpochs(t, 6)

	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(3*time.Hour))
	wantAgg, wantExact := exploreAll(t, r.e, w)
	spBefore := r.e.Space()

	rep, err := r.e.Compact(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlobsConverted == 0 || rep.LeavesRewritten == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.BytesAfter >= rep.BytesBefore {
		t.Errorf("compaction grew the store: %d -> %d bytes", rep.BytesBefore, rep.BytesAfter)
	}
	if sp := r.e.Space(); sp.CompBytes >= spBefore.CompBytes {
		t.Errorf("Space().CompBytes %d -> %d, want a reduction", spBefore.CompBytes, sp.CompBytes)
	}

	r.e.ClearCache() // force the comparison through the rewritten files
	gotAgg, gotExact := exploreAll(t, r.e, w)
	if gotAgg.Summary.Rows != wantAgg.Summary.Rows {
		t.Errorf("aggregate rows = %d, want %d", gotAgg.Summary.Rows, wantAgg.Summary.Rows)
	}
	sameRows(t, wantExact, gotExact)

	// A second sweep finds everything already in segment form.
	rep2, err := r.e.Compact(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LeavesRewritten != 0 {
		t.Errorf("second sweep rewrote %d leaves", rep2.LeavesRewritten)
	}

	// Recovery over the compacted store picks the new refs up from the
	// rewritten leaf metadata.
	e2 := reopen(t, r, opts)
	if e2.Tree().Len() != r.e.Tree().Len() {
		t.Fatalf("recovered %d leaves, want %d", e2.Tree().Len(), r.e.Tree().Len())
	}
	recAgg, recExact := exploreAll(t, e2, w)
	if recAgg.Summary.Rows != wantAgg.Summary.Rows {
		t.Errorf("recovered aggregate rows = %d, want %d", recAgg.Summary.Rows, wantAgg.Summary.Rows)
	}
	sameRows(t, wantExact, recExact)
}

// TestCompactKeepsTableThatPacksWorse pins the one case where a sweep leaves
// a legacy blob alone: a table so small under gzip (one of the rig's NMS
// blobs, a few hundred bytes) that its column segment, footer included,
// stores more. Such a table stays as stored, still answers, and every later
// sweep weighs it again without rewriting anything.
func TestCompactKeepsTableThatPacksWorse(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestBlobEpochs(t, 6)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(3*time.Hour))
	_, wantExact := exploreAll(t, r.e, w)

	rep, err := r.e.Compact(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesKept == 0 || rep.BlobsConverted == 0 {
		t.Fatalf("report = %+v, want tables both kept and converted", rep)
	}
	blobs := 0
	r.e.Tree().Walk(func(n *index.Node) bool {
		for _, ref := range n.DataRefs {
			f, err := r.e.fs.Open(ref)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := segment.Open(f, f.Size(), r.e.Codec()); errors.Is(err, segment.ErrNotSegment) {
				blobs++
			}
		}
		return true
	})
	if blobs != rep.TablesKept {
		t.Errorf("%d tables still stored as blobs, report kept %d", blobs, rep.TablesKept)
	}
	r.e.ClearCache()
	_, gotExact := exploreAll(t, r.e, w)
	sameRows(t, wantExact, gotExact)

	rep2, err := r.e.Compact(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LeavesRewritten != 0 || rep2.TablesKept != rep.TablesKept {
		t.Errorf("second sweep = %+v, want nothing rewritten and the same %d tables kept", rep2, rep.TablesKept)
	}
}

// TestCompactMergesUndersizedChunks rewrites a fragmented segment store
// toward a larger chunk target and proves the merge is invisible to
// queries.
func TestCompactMergesUndersizedChunks(t *testing.T) {
	r := newRig(t, Options{ChunkSize: 256}) // absurdly small: many chunks per leaf
	r.ingestEpochs(t, 4)

	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))
	wantAgg, wantExact := exploreAll(t, r.e, w)

	rep, err := r.e.Compact(context.Background(), CompactOptions{ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksMerged == 0 || rep.LeavesRewritten == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.BlobsConverted != 0 {
		t.Errorf("merge sweep converted %d blobs on a segment store", rep.BlobsConverted)
	}

	r.e.ClearCache()
	gotAgg, gotExact := exploreAll(t, r.e, w)
	if gotAgg.Summary.Rows != wantAgg.Summary.Rows {
		t.Errorf("aggregate rows = %d, want %d", gotAgg.Summary.Rows, wantAgg.Summary.Rows)
	}
	sameRows(t, wantExact, gotExact)
}

// TestCompactRespectsMaxLeaves bounds a sweep and resumes it.
func TestCompactRespectsMaxLeaves(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestBlobEpochs(t, 4)
	rep1, err := r.e.Compact(context.Background(), CompactOptions{MaxLeaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.LeavesRewritten != 1 {
		t.Fatalf("capped sweep rewrote %d leaves", rep1.LeavesRewritten)
	}
	rep2, err := r.e.Compact(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LeavesRewritten != 3 {
		t.Errorf("follow-up rewrote %d leaves, want 3", rep2.LeavesRewritten)
	}
}

// TestCompactCanceledContext stops a sweep between leaves.
func TestCompactCanceledContext(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestBlobEpochs(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.e.Compact(ctx, CompactOptions{}); err == nil {
		t.Error("canceled compaction returned nil error")
	}
}
