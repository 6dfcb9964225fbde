package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"spate/internal/compress"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/scanspec"
	"spate/internal/segment"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

var vecSchema = telco.MustSchema("V", []telco.Field{
	{Name: "ts", Kind: telco.KindTime},       // delta
	{Name: "seq", Kind: telco.KindInt},       // delta
	{Name: "level", Kind: telco.KindInt},     // dict, with blanks
	{Name: "loose", Kind: telco.KindInt},     // plain: non-canonical digits
	{Name: "ratio", Kind: telco.KindFloat},   // plain, with blanks
	{Name: "step", Kind: telco.KindFloat},    // dict
	{Name: "whole", Kind: telco.KindFloat},   // delta: integer-valued floats
	{Name: "kind", Kind: telco.KindString},   // dict, with blanks and an escape
	{Name: "who", Kind: telco.KindString},    // plain
	{Name: "serial", Kind: telco.KindString}, // delta: digits kept as text
	{Name: "band", Kind: telco.KindInt},      // dict in long runs, one of them blank
	{Name: "zone", Kind: telco.KindString},   // dict in long runs
})

// vecChunk packs seeded rows into one v3 chunk whose columns take every
// stream codec under every value kind, and decodes it back as a batch.
func vecChunk(t *testing.T, rng *rand.Rand, n int, b *telco.Batch) {
	t.Helper()
	codec, err := compress.Lookup("gzip")
	if err != nil {
		t.Fatal(err)
	}
	w := segment.NewColumnWriter(codec, 64<<20, vecSchema.NumFields())
	base := time.Date(2016, 1, 18, 9, 0, 0, 0, time.UTC)
	blank := func(s string, oneIn int) string {
		if rng.Intn(oneIn) == 0 {
			return ""
		}
		return s
	}
	for i := 0; i < n; i++ {
		fields := []string{
			base.Add(time.Duration(i) * time.Second).Format(telco.TimeLayout),
			fmt.Sprint(i*3 - 100),
			blank(fmt.Sprint(rng.Intn(4)*100), 5),
			[]string{"007", "+5", "300", "-0", "12"}[rng.Intn(5)] + blank("0", 2),
			blank(fmt.Sprint(rng.NormFloat64()*300), 6),
			[]string{"0.5", "300", "1e3", "-2.25"}[rng.Intn(4)],
			fmt.Sprint(i % 700),
			blank([]string{"VOICE", "SMS", "DATA", `a\pb`}[rng.Intn(4)], 5),
			fmt.Sprintf("u%d-%x", i, rng.Uint32()),
			fmt.Sprint(5000 + i),
			[]string{"100", "", "300", "700"}[i/60%4],
			[]string{"SMS", "north", "", "VOICE"}[i/45%4],
		}
		if err := w.AppendRowFields(fields, segment.RowMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), codec)
	if err != nil {
		t.Fatal(err)
	}
	tags := map[byte]bool{}
	for _, cm := range r.Chunks()[0].Cols {
		tags[cm.Tag] = true
	}
	if r.NumChunks() != 1 || !tags[compress.ColPlain] || !tags[compress.ColDict] || !tags[compress.ColDelta] {
		t.Fatalf("%d chunks, column codecs %v: want one chunk using all three", r.NumChunks(), tags)
	}
	inflated, err := r.ChunkBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.DecodeBatch(0, inflated, vecSchema, nil, b, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"band", "zone"} {
		if c := &b.Cols[vecSchema.FieldIndex(name)]; len(c.Runs) == 0 || len(c.Runs)*minRunLen > b.N {
			t.Fatalf("column %s decoded with %d runs over %d rows: want runs long enough to be decided whole", name, len(c.Runs), b.N)
		}
	}
	if c := &b.Cols[vecSchema.FieldIndex("level")]; len(c.Runs)*minRunLen <= b.N {
		t.Fatalf("column level decoded with %d runs over %d rows: want short runs, decided row by row", len(c.Runs), b.N)
	}
}

// TestCompiledPredParity: a predicate compiled once and run over the
// column arrays keeps exactly the rows scanspec.Pred.Eval keeps one value at
// a time — all six operators × integer, float and string literals × every
// column kind under dictionary (in short runs and in long ones, which are
// decided whole), delta and plain streams, from a full selection and from
// one an earlier filter already thinned.
func TestCompiledPredParity(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var b telco.Batch
	vecChunk(t, rng, 900, &b)
	lits := []struct{ kind, val string }{
		{"int", "300"}, {"int", "0"}, {"int", "-100"}, {"int", "5000"}, {"int", "junk"},
		{"float", "300"}, {"float", "0.5"}, {"float", "-2.25"}, {"float", "NaN"},
		{"str", "SMS"}, {"str", "a|b"}, {"str", "300"}, {"str", ""}, {"str", "u5"}, {"str", "north"},
	}
	for ci, f := range vecSchema.Fields {
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			for _, lit := range lits {
				p := scanspec.Pred{Col: f.Name, Op: op, Kind: lit.kind, Val: lit.val}
				cp := compilePred(p, ci)
				for _, thinned := range []bool{false, true} {
					b.SelectAll()
					if thinned {
						b.Keep(func(i int) bool { return i%3 != 1 })
					}
					var want []uint32
					for _, i := range b.Rows() {
						if p.Eval(b.Cols[ci].Value(int(i))) {
							want = append(want, i)
						}
					}
					cp.filter(&b)
					got := b.Rows()
					if len(got) != len(want) {
						t.Fatalf("%v (thinned %v): kept %d rows, Eval keeps %d", p, thinned, len(got), len(want))
					}
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("%v (thinned %v): survivor %d is row %d, Eval's is row %d", p, thinned, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

// TestTimeFilterParity: the array time filter keeps the rows the
// row-at-a-time rule kept — inside the scan window, inside the spec's exact
// window, and a row without a timestamp unless the spec requires one —
// for windows with and without fractional-second bounds.
func TestTimeFilterParity(t *testing.T) {
	rowRule := func(v telco.Value, w telco.TimeRange, spec *ScanSpec) bool {
		if v.IsNull() {
			return spec == nil || !spec.RequireTS
		}
		ts := v.Time()
		if !w.Contains(ts) {
			return false
		}
		return spec == nil || spec.Window.Contains(ts.Unix())
	}
	base := time.Date(2016, 1, 18, 9, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(5))
	rows := make([]telco.Record, 500)
	for i := range rows {
		rows[i] = telco.Record{telco.Time(base.Add(time.Duration(rng.Intn(600)) * time.Second))}
		if rng.Intn(8) == 0 {
			rows[i][0] = telco.Null
		}
	}
	schema := telco.MustSchema("W", []telco.Field{{Name: "ts", Kind: telco.KindTime}})
	var b telco.Batch
	windows := []telco.TimeRange{
		telco.NewTimeRange(base.Add(100*time.Second), base.Add(400*time.Second)),
		telco.NewTimeRange(base.Add(100*time.Second+time.Nanosecond), base.Add(400*time.Second+500*time.Millisecond)),
		telco.NewTimeRange(base.Add(-time.Hour), base.Add(time.Hour)),
	}
	exact := &scanspec.TimeWindow{From: base.Add(150 * time.Second).Unix(), HasFrom: true, To: base.Add(301 * time.Second).Unix(), HasTo: true}
	specs := []*ScanSpec{nil, {}, {RequireTS: true}, {RequireTS: true, Window: exact}, {Window: exact}}
	for _, w := range windows {
		for _, spec := range specs {
			b.SetRows(schema, nil, rows, true)
			tf := newTimeFilter(w, spec)
			tf.filter(&b, 0)
			got := b.Rows()
			k := 0
			for i, r := range rows {
				if !rowRule(r[0], w, spec) {
					continue
				}
				if k >= len(got) || got[k] != uint32(i) {
					t.Fatalf("window %v spec %v: row %d passes the row rule, the filter's survivor %d differs", w, spec, i, k)
				}
				k++
			}
			if k != len(got) {
				t.Fatalf("window %v spec %v: filter kept %d rows, the row rule %d", w, spec, len(got), k)
			}
		}
	}
}

// TestLeafSummaryRebuildAllocations guards what column batches are for: a
// warm summary rebuild allocates the Summary it returns and little else —
// no row slab, no per-row values, no per-(cell, attribute) map traffic
// while folding. The leaf has the paper's shape, 17 NMS reports per cell
// and epoch. Measured on this leaf (300 cells, 1 500 CDR + ~5 100 NMS
// rows): the row fold at 025bae9 allocated 2 614 KB and 2 300 objects per
// rebuild — mostly the 40-byte values of its row slabs; the batch fold
// allocates 255 KB and 134 objects, the returned Summary's arrays and the
// DFS block reads of the two leaf files.
func TestLeafSummaryRebuildAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector sync.Pool drops the batch and the folder at random")
	}
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas, cfg.Users, cfg.CDRPerEpoch, cfg.NMSReportsPerCell = 100, 3000, 1500, 17
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(fs, g.CellTable(), Options{ScanWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep := telco.EpochOf(cfg.Start.Add(12 * time.Hour))
	sn := snapshot.New(ep)
	sn.Add(g.CDRTable(ep))
	sn.Add(g.NMSTable(ep))
	rows := sn.Table("CDR").Len() + sn.Table("NMS").Len()
	if _, err := e.Ingest(sn); err != nil {
		t.Fatal(err)
	}
	period := telco.TimeRange{From: ep.Start(), To: ep.End()}
	e.mu.RLock()
	leaves := e.rowLeaves(period)
	e.mu.RUnlock()
	if len(leaves) != 1 {
		t.Fatalf("%d leaves", len(leaves))
	}
	rebuild := func() *highlights.Summary {
		s, err := e.buildLeafSummary(period, leaves[0].refs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := rebuild() // warms the chunk cache and the pooled batch and folder
	if int(s.Rows) != rows || s.Cells() < 200 {
		t.Fatalf("summary of %d rows over %d cells; the leaf holds %d rows", s.Rows, s.Cells(), rows)
	}
	var m0, m1 runtime.MemStats
	const rounds = 5
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		rebuild()
	}
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
	objects := float64(m1.Mallocs-m0.Mallocs) / rounds
	t.Logf("%d rows, %d cells: %.0f KB and %.0f objects per rebuild", rows, s.Cells(), bytes/1024, objects)
	// A quarter of the row fold's 2 614 KB; the measured 255 KB leaves room
	// for a pool the collector happened to empty.
	if limit := 2614.0 * 1024 / 4; bytes > limit {
		t.Errorf("a warm rebuild allocated %.0f KB, over a quarter (%.0f KB) of the row fold's", bytes/1024, limit/1024)
	}
}

// TestResultSizeCoversHeap: what the result cache charges for an entry is
// at least the heap the entry keeps alive, so its byte bound holds — for a
// rebuilt leaf of the paper's shape, encoded as ExploreParts caches it, and
// for an exploration's answer over three such leaves, merged and spatially
// restricted with a cell series per cell.
func TestResultSizeCoversHeap(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow memory counts in the heap")
	}
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas, cfg.Users, cfg.CDRPerEpoch, cfg.NMSReportsPerCell = 100, 3000, 1500, 17
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(fs, g.CellTable(), Options{ScanWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := telco.EpochOf(cfg.Start.Add(12 * time.Hour))
	for ep := first; ep < first+3; ep++ {
		sn := snapshot.New(ep)
		sn.Add(g.CDRTable(ep))
		sn.Add(g.NMSTable(ep))
		if _, err := e.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	w := telco.TimeRange{From: first.Start(), To: (first + 3).Start()}
	e.mu.RLock()
	leaves := e.rowLeaves(w)
	e.mu.RUnlock()
	rebuild := func(i int) *highlights.Summary {
		ep := first + telco.Epoch(i)
		s, err := e.buildLeafSummary(telco.TimeRange{From: ep.Start(), To: ep.End()}, leaves[i].refs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// retained is the heap f's result keeps alive once the collector has
	// run twice, emptying the pools: the least of three measurements, since
	// anything else the process keeps meanwhile only adds to one.
	retained := func(f func() *Result) (r *Result, least int64) {
		for i := 0; i < 3; i++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			r = f()
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m1)
			if d := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); i == 0 || d < least {
				least = d
			}
		}
		return r, least
	}

	var parts []*highlights.Summary
	for i := range leaves {
		parts = append(parts, rebuild(i)) // also warms the chunk cache
	}
	leaf, leafHeap := retained(func() *Result {
		s := rebuild(1)
		s.Encode()
		return &Result{Summary: s, ServedPeriod: s.Period}
	})
	if leaf.Summary.Cells() < 200 {
		t.Fatalf("the leaf holds %d cells", leaf.Summary.Cells())
	}
	if got := leaf.SizeBytes(); got < leafHeap {
		t.Errorf("a rebuilt, encoded leaf is charged %d bytes and keeps %d alive", got, leafHeap)
	}

	box := geo.NewRect(0, 0, 40, 38)
	answer, heap := retained(func() *Result {
		r := &Result{ServedPeriod: w}
		r.Summary, r.Cells = e.cells.Restrict(highlights.Merge(w, parts...), box, nil)
		return r
	})
	if len(answer.Cells) == 0 {
		t.Fatal("the box holds no cell")
	}
	if got := answer.SizeBytes(); got < heap {
		t.Errorf("a 3-leaf answer over %d cells is charged %d bytes and keeps %d alive", len(answer.Cells), got, heap)
	}
	// The same answer once the cache took it and a hit filled the memo of
	// rendered cells.
	memoized, memoHeap := retained(func() *Result {
		r := &Result{ServedPeriod: w}
		r.Summary, r.Cells = e.cells.Restrict(highlights.Merge(w, parts...), box, nil)
		r.rendered = new(cellsMemo)
		if !fillMemo(r) {
			t.Fatal("the memo kept no rendering")
		}
		return r
	})
	if got := memoized.SizeBytes(); got < memoHeap {
		t.Errorf("the answer with a full memo is charged %d bytes and keeps %d alive", got, memoHeap)
	}
	t.Logf("leaf: charged %d, retained %d; answer: charged %d, retained %d; with a full memo: charged %d, retained %d",
		leaf.SizeBytes(), leafHeap, answer.SizeBytes(), heap, memoized.SizeBytes(), memoHeap)
	runtime.KeepAlive(parts)
	runtime.KeepAlive(e) // its caches must not be what a measurement sees freed
}

// TestAggMetaParity: folding a chunk from its zone metadata equals folding
// its rows, for the aggregates metadata may answer (scanspec.CanUseMeta) in
// every kind an integer zone lifts into — and both equal the row-at-a-time
// definition, scanspec.Spec.AddRow.
func TestAggMetaParity(t *testing.T) {
	schema := telco.MustSchema("M", []telco.Field{
		{Name: "n", Kind: telco.KindInt},
		{Name: "f", Kind: telco.KindFloat},
		{Name: "ts", Kind: telco.KindTime},
	})
	spec := &ScanSpec{Aggs: []scanspec.Agg{
		{Fn: "COUNT"}, {Fn: "COUNT", Col: "n"}, {Fn: "MIN", Col: "n"}, {Fn: "MAX", Col: "n"},
		{Fn: "MIN", Col: "f"}, {Fn: "MAX", Col: "f"}, {Fn: "MIN", Col: "ts"}, {Fn: "MAX", Col: "ts"},
	}}
	w := telco.NewTimeRange(time.Unix(0, 0), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC))
	var rows []telco.Record
	byRow := spec.NewPartial(telco.Null)
	wire := []int64{20160118093000, 20160118093007, 20160118100000} // zones hold a time's wire digits
	for i, n := range []int64{4, -2, 9} {
		ts, err := telco.ParseValue(telco.KindTime, fmt.Sprint(wire[i]))
		if err != nil {
			t.Fatal(err)
		}
		r := telco.Record{telco.Int(n), telco.Float(float64(n * 3)), ts}
		rows = append(rows, r)
		spec.AddRow(byRow, []telco.Value{telco.Null, r[0], r[0], r[0], r[1], r[1], r[2], r[2]})
	}
	folded, err := newAggAcc(spec, schema, newTimeFilter(w, spec))
	if err != nil {
		t.Fatal(err)
	}
	var b telco.Batch
	folded.foldMem(&b, &telco.Table{Schema: schema, Rows: rows})

	meta, err := newAggAcc(spec, schema, newTimeFilter(w, spec))
	if err != nil {
		t.Fatal(err)
	}
	ch := &segment.Chunk{Rows: int64(len(rows)), Cols: []segment.ColMeta{
		{HasZone: true, Min: -2, Max: 9}, {HasZone: true, Min: -6, Max: 27}, {HasZone: true, Min: wire[0], Max: wire[2]},
	}}
	if !meta.metaOK(ch) {
		t.Fatal("zoned chunk not answerable from metadata")
	}
	meta.addMeta(ch)
	want := []scanspec.Partial{*byRow}
	if got := folded.partials(); !reflect.DeepEqual(got, want) {
		t.Errorf("array fold:\n got %+v\nwant %+v", got, want)
	}
	if got := meta.partials(); !reflect.DeepEqual(got, want) {
		t.Errorf("metadata fold:\n got %+v\nwant %+v", got, want)
	}
}
