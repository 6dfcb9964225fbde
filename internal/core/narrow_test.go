package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"spate/internal/compress"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/scanspec"
	"spate/internal/segment"
	"spate/internal/segment/segmenttest"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// mixedStore builds one store whose window crosses every source of rows a
// scan can meet, two epochs each: legacy whole-blob leaves, v2 row-major
// segments, v3 segments of row-text chunks, v3 segments of packed column
// chunks — and one epoch still live in the streaming memtable. The
// returned kinds name what each leaf turned out to be.
func mixedStore(t *testing.T, workers int) (*testRig, telco.TimeRange, map[string]int) {
	t.Helper()
	codec, err := compress.Lookup("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 16 << 10
	r := newRig(t, Options{Codec: codec})
	snaps := epochSnapshots(r, 9)
	ingest := func(from, to int) {
		for _, sn := range snaps[from:to] {
			if _, err := r.e.Ingest(sn); err != nil {
				t.Fatal(err)
			}
		}
	}
	commitBlobs(t, r.e, snaps[0:2]...) // legacy blobs
	r.e = reopen(t, r, Options{Codec: codec, ChunkSize: chunk, SegmentVersion: segment.RowVersion})
	ingest(2, 4) // v2
	r.e = reopen(t, r, Options{Codec: codec, ChunkSize: chunk, ScanWorkers: workers})
	// v3, row-text chunks: a layout only older writers chose, so the leaves
	// are converted between Prepare and Commit.
	for _, sn := range snaps[4:6] {
		p, err := r.e.Prepare(context.Background(), sn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.tables {
			if p.tables[i].data, err = segmenttest.RowTextLayout(p.tables[i].data, codec); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.e.Commit(p); err != nil {
			t.Fatal(err)
		}
	}
	ingest(6, 8) // v3, packed column chunks
	st := openStreamer(t, r, streamOpts(t))
	appendSnapshot(t, st, snaps[8]) // live memtable epoch

	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(9*telco.EpochDuration))
	kinds := map[string]int{}
	r.e.mu.RLock()
	leaves := r.e.rowLeaves(w)
	r.e.mu.RUnlock()
	for _, l := range leaves {
		for _, ref := range l.refs {
			f, err := r.fs.Open(ref)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := segment.Open(f, f.Size(), codec)
			if errors.Is(err, segment.ErrNotSegment) {
				kinds["blob"]++
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range sr.Chunks() {
				switch {
				case !sr.Columnar():
					kinds["v2"]++
				case ch.RowMajor():
					kinds["rowtext"]++
				default:
					kinds["columnar"]++
				}
			}
		}
	}
	for _, k := range []string{"blob", "v2", "rowtext", "columnar"} {
		if kinds[k] == 0 {
			t.Fatalf("mixed store holds no %s source: %v", k, kinds)
		}
	}
	if st.Memtable().Rows() == 0 {
		t.Fatal("mixed store holds no live memtable rows")
	}
	return r, w, kinds
}

// oracleRows reads the window's rows the way no scan does: every leaf
// file inflated to its full wire text (ChunkData, the compaction read
// path) and parsed full-width by snapshot.DecodeTable, then the memtable's
// own full tables — per table, in leaf then memtable order. perLeaf keeps
// the sealed leaves' tables apart for summary checks.
func oracleRows(t *testing.T, r *testRig, w telco.TimeRange) (all map[string][]telco.Record, perLeaf []map[string]*telco.Table) {
	t.Helper()
	all = map[string][]telco.Record{}
	codec := r.e.Codec()
	r.e.mu.RLock()
	leaves := r.e.rowLeaves(w)
	memt, after := r.e.memAfterLocked()
	r.e.mu.RUnlock()
	for _, l := range leaves {
		tabs := map[string]*telco.Table{}
		for name, ref := range l.refs {
			f, err := r.fs.Open(ref)
			if err != nil {
				t.Fatal(err)
			}
			var text []byte
			sr, err := segment.Open(f, f.Size(), codec)
			if errors.Is(err, segment.ErrNotSegment) {
				comp, err := r.fs.ReadFile(ref)
				if err != nil {
					t.Fatal(err)
				}
				if text, err = codec.Decompress(nil, comp); err != nil {
					t.Fatal(err)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				for i := range sr.Chunks() {
					chunk, err := sr.ChunkData(i)
					if err != nil {
						t.Fatal(err)
					}
					text = append(text, chunk...)
				}
			}
			tab, err := snapshot.DecodeTable(name, text)
			if err != nil {
				t.Fatal(err)
			}
			tabs[name] = tab
			all[name] = append(all[name], tab.Rows...)
		}
		perLeaf = append(perLeaf, tabs)
	}
	if memt != nil {
		err := memt.Scan(w, nil, after, func(name string, tab *telco.Table) error {
			all[name] = append(all[name], tab.Rows...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return all, perLeaf
}

// wantScan is the reference answer of a spec scan: the oracle's full rows
// put through the scan's row rules, then cut down to the named columns.
func wantScan(full []telco.Record, schema *telco.Schema, w telco.TimeRange, spec *ScanSpec, names []string) []telco.Record {
	tsIdx := schema.FieldIndex(telco.AttrTS)
	var out []telco.Record
	for _, r := range full {
		if r[tsIdx].IsNull() {
			if spec != nil && spec.RequireTS {
				continue
			}
		} else {
			ts := r[tsIdx].Time()
			if !w.Contains(ts) || (spec != nil && !spec.Window.Contains(ts.Unix())) {
				continue
			}
		}
		keep := true
		if spec != nil {
			for _, p := range spec.Preds {
				if !p.Eval(r[schema.FieldIndex(p.Col)]) {
					keep = false
				}
			}
		}
		if !keep {
			continue
		}
		rec := make(telco.Record, len(names))
		for i, n := range names {
			rec[i] = r[schema.FieldIndex(n)]
		}
		out = append(out, rec)
	}
	return out
}

func sameRecords(t *testing.T, what string, got, want []telco.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d values, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if g, w := got[i][j], want[i][j]; g.Kind() != w.Kind() || !g.Equal(w) {
				t.Fatalf("%s row %d col %d: %v %q, want %v %q", what, i, j, g.Kind(), g.Format(), w.Kind(), w.Format())
			}
		}
	}
}

// TestNarrowScanParityAcrossSources is the narrow-table contract: over a
// store mixing legacy blobs, v2 segments, v3 row-text and v3 columnar
// chunks plus a live memtable epoch, sequentially and 4 workers wide, every
// scan path hands out exactly the oracle's full rows restricted to its
// projection — ScanTablesSpec under several specs (and its layout is the
// projection, nothing wider), the exact-row fetch, the leaf summary
// rebuild, and pushed-down aggregate partials.
func TestNarrowScanParityAcrossSources(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r, w, _ := mixedStore(t, workers)
		all, perLeaf := oracleRows(t, r, w)
		ctx := context.Background()
		cdr, nms := telco.CDRSchema, telco.NMSSchema

		// ScanTablesSpec. The sub-window starts and ends inside epochs, so
		// the row-level time filter works on every kind of source.
		sub := telco.NewTimeRange(w.From.Add(10*time.Minute), w.To.Add(-10*time.Minute))
		exact := &scanspec.TimeWindow{From: sub.From.Add(5 * time.Minute).Unix(), HasFrom: true}
		specs := []struct {
			table  string
			schema *telco.Schema
			spec   *ScanSpec
			names  []string // expected layout, schema order
		}{
			{"CDR", cdr, nil, cdr.FieldNames()},
			{"CDR", cdr, &ScanSpec{Preds: []scanspec.Pred{{Col: telco.AttrDuration, Op: ">", Kind: "int", Val: "60"}}}, cdr.FieldNames()},
			{"CDR", cdr, &ScanSpec{Columns: []string{telco.AttrUpflux, telco.AttrDownflux}},
				[]string{telco.AttrTS, telco.AttrUpflux, telco.AttrDownflux}},
			{"CDR", cdr, &ScanSpec{Columns: []string{telco.AttrCaller, telco.AttrCallType, "attr_150"},
				Preds:     []scanspec.Pred{{Col: telco.AttrDuration, Op: ">=", Kind: "int", Val: "30"}, {Col: telco.AttrCallType, Op: "!=", Kind: "str", Val: "SMS"}},
				RequireTS: true, Window: exact},
				[]string{telco.AttrTS, telco.AttrCaller, telco.AttrCallType, telco.AttrDuration, "attr_150"}},
			{"CDR", cdr, &ScanSpec{Columns: []string{}}, []string{telco.AttrTS}},
			{"NMS", nms, &ScanSpec{Columns: []string{"rssi_dbm", telco.AttrCellID}},
				[]string{telco.AttrTS, telco.AttrCellID, "rssi_dbm"}},
		}
		for si, sc := range specs {
			var got []telco.Record
			err := r.e.ScanTablesSpec(ctx, sub, geo.Rect{}, []string{sc.table}, sc.spec, func(name string, tab *telco.Table) error {
				if name != sc.table || tab.Schema.Name != sc.table {
					t.Fatalf("spec %d: got table %q under schema %q", si, name, tab.Schema.Name)
				}
				if layout := strings.Join(tab.Schema.FieldNames(), ","); layout != strings.Join(sc.names, ",") {
					t.Fatalf("spec %d: layout (%s), want (%s)", si, layout, strings.Join(sc.names, ","))
				}
				got = append(got, tab.Rows...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := wantScan(all[sc.table], sc.schema, sub, sc.spec, sc.names)
			if len(want) == 0 {
				t.Fatalf("spec %d selects no rows: the case checks nothing", si)
			}
			sameRecords(t, "workers="+string(rune('0'+workers))+" ScanTablesSpec "+sc.spec.String(), got, want)
		}

		// Exact-row fetch: full-width rows of every table.
		res, err := r.e.Explore(Query{Window: sub, ExactRows: true})
		if err != nil {
			t.Fatal(err)
		}
		for name, schema := range map[string]*telco.Schema{"CDR": cdr, "NMS": nms} {
			if res.Rows[name].Schema != schema {
				t.Fatalf("exact rows %s: rows under a projected schema", name)
			}
			sameRecords(t, "exact rows "+name, res.Rows[name].Rows, wantScan(all[name], schema, sub, nil, schema.FieldNames()))
		}

		// Boxed exact rows: the oracle's rows of the box's cells. A box
		// holding no cell still names every scanned table, with no rows.
		box := cellExtent(r)
		box.MaxX = (box.MinX + box.MaxX) / 2
		boxed, err := r.e.Explore(Query{Window: sub, Box: box, ExactRows: true})
		if err != nil {
			t.Fatal(err)
		}
		cells := boxCells(r, box)
		for name, schema := range map[string]*telco.Schema{"CDR": cdr, "NMS": nms} {
			want := inBoxRows(wantScan(all[name], schema, sub, nil, schema.FieldNames()), schema, cells)
			if len(want) == 0 || len(want) == len(all[name]) {
				t.Fatalf("box %v keeps %d of %d %s rows: the case checks nothing", box, len(want), len(all[name]), name)
			}
			sameRecords(t, "boxed exact rows "+name, boxed.Rows[name].Rows, want)
		}
		far, err := r.e.Explore(Query{Window: sub, Box: geo.NewRect(1e6, 1e6, 1e6+1, 1e6+1), ExactRows: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"CDR", "NMS"} {
			if tab, ok := far.Rows[name]; !ok || tab.Len() != 0 {
				t.Fatalf("empty box: Rows[%s] present=%v, want present and empty", name, ok)
			}
		}
		exactRowsCases(t, r, w, all, workers)

		// Leaf summary rebuild: projected fold ≡ full-width fold.
		r.e.mu.RLock()
		leaves := r.e.rowLeaves(w)
		r.e.mu.RUnlock()
		for li, l := range leaves {
			period := telco.NewTimeRange(w.From.Add(time.Duration(li)*telco.EpochDuration), w.From.Add(time.Duration(li+1)*telco.EpochDuration))
			got, err := r.e.buildLeafSummary(period, l.refs, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := highlights.NewSummary(period)
			for _, tab := range perLeaf[li] {
				want.AddTable(r.e.opts.Highlights, tab)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("leaf %d: summary rebuilt from projected rows differs from the full-width fold", li)
			}
		}

		// Aggregate partials.
		aggs := []struct {
			table  string
			schema *telco.Schema
			spec   *ScanSpec
		}{
			{"CDR", cdr, &ScanSpec{Aggs: []scanspec.Agg{{Fn: "COUNT"}, {Fn: "SUM", Col: telco.AttrDuration}, {Fn: "MAX", Col: telco.AttrUpflux}}}},
			{"CDR", cdr, &ScanSpec{GroupBy: telco.AttrCallType, RequireTS: true, Window: exact,
				Preds: []scanspec.Pred{{Col: telco.AttrDuration, Op: "<", Kind: "int", Val: "400"}},
				Aggs:  []scanspec.Agg{{Fn: "COUNT"}, {Fn: "MIN", Col: telco.AttrTS}, {Fn: "SUM", Col: telco.AttrDownflux}}}},
			{"NMS", nms, &ScanSpec{GroupBy: telco.AttrCellID,
				Aggs: []scanspec.Agg{{Fn: "SUM", Col: "drop_calls"}, {Fn: "SUM", Col: "call_attempts"}, {Fn: "MAX", Col: "rssi_dbm"}}}},
		}
		for ai, ac := range aggs {
			got, err := r.e.AggregatePartials(ctx, sub, ac.table, ac.spec)
			if err != nil {
				t.Fatal(err)
			}
			groups := map[string]*scanspec.Partial{}
			cols := ac.spec.Referenced()
			for _, row := range wantScan(all[ac.table], ac.schema, sub, ac.spec, cols) {
				pos := func(name string) telco.Value {
					for i, c := range cols {
						if c == name {
							return row[i]
						}
					}
					return telco.Null
				}
				g := pos(ac.spec.GroupBy)
				if groups[g.Format()] == nil {
					groups[g.Format()] = ac.spec.NewPartial(g)
				}
				vals := make([]telco.Value, len(ac.spec.Aggs))
				for i, a := range ac.spec.Aggs {
					vals[i] = pos(a.Col)
				}
				ac.spec.AddRow(groups[g.Format()], vals)
			}
			var want []scanspec.Partial
			for _, p := range groups {
				want = append(want, *p)
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d aggregate %d: partials differ from the full-row fold\n got %+v\nwant %+v", workers, ai, got, want)
			}
		}
	}
}

// cellExtent is the smallest box holding every cell of the rig's world.
func cellExtent(r *testRig) geo.Rect {
	cells := r.g.CellTable()
	xi, yi := cells.Schema.FieldIndex("x_km"), cells.Schema.FieldIndex("y_km")
	var box geo.Rect
	for i, c := range cells.Rows {
		pt := geo.Point{X: c[xi].Float64(), Y: c[yi].Float64()}
		if i == 0 {
			box = geo.NewRect(pt.X, pt.Y, pt.X, pt.Y)
		}
		box = box.Expand(pt)
	}
	return box
}

// boxCells is the oracle's spatial filter: the ids of the cells located in
// box, read off the generator's CELL table rather than the engine's cell
// index; nil for the zero box, which filters nothing.
func boxCells(r *testRig, box geo.Rect) map[int64]bool {
	if box == (geo.Rect{}) {
		return nil
	}
	cells := r.g.CellTable()
	idi, xi, yi := cells.Schema.FieldIndex(telco.AttrCellID), cells.Schema.FieldIndex("x_km"), cells.Schema.FieldIndex("y_km")
	in := map[int64]bool{}
	for _, c := range cells.Rows {
		if box.Contains(geo.Point{X: c[xi].Float64(), Y: c[yi].Float64()}) {
			in[c[idi].Int64()] = true
		}
	}
	return in
}

// inBoxRows keeps the full-width rows whose cell is in cells; nil cells
// keeps every row.
func inBoxRows(rows []telco.Record, schema *telco.Schema, cells map[int64]bool) []telco.Record {
	if cells == nil {
		return rows
	}
	ci := schema.FieldIndex(telco.AttrCellID)
	var out []telco.Record
	for _, r := range rows {
		if cells[r[ci].Int64()] {
			out = append(out, r)
		}
	}
	return out
}

// exactRowsCases runs seeded random exact-row reads over the mixed store's
// window — random windows, boxes (some the zero box) and table selections,
// each as an exploration and as a full-width and a narrow ScanTablesSpec —
// and checks each table's rows against the oracle's, filtered by window and
// the box's cells. In an exploration a table outside the selection is
// absent, and one the oracle has rows of is present.
func exactRowsCases(t *testing.T, r *testRig, w telco.TimeRange, all map[string][]telco.Record, workers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	ext := cellExtent(r)
	selections := [][]string{nil, {"CDR"}, {"NMS"}, {"CDR", "NMS"}}
	schemas := map[string]*telco.Schema{"CDR": telco.CDRSchema, "NMS": telco.NMSSchema}
	span := int(w.To.Sub(w.From) / time.Minute)
	checked := 0
	for i := 0; i < 10; i++ {
		from := rng.Intn(span - 1)
		win := telco.NewTimeRange(w.From.Add(time.Duration(from)*time.Minute),
			w.From.Add(time.Duration(from+1+rng.Intn(span-from-1))*time.Minute))
		var box geo.Rect
		if rng.Intn(4) > 0 {
			x0 := ext.MinX + rng.Float64()*(ext.MaxX-ext.MinX)
			y0 := ext.MinY + rng.Float64()*(ext.MaxY-ext.MinY)
			box = geo.NewRect(x0, y0, x0+rng.Float64()*(ext.MaxX-ext.MinX)/2, y0+rng.Float64()*(ext.MaxY-ext.MinY)/2)
		}
		tables := selections[rng.Intn(len(selections))]
		what := fmt.Sprintf("workers=%d case %d (%v, box %v, tables %v)", workers, i, win, box, tables)
		res, err := r.e.Explore(Query{Window: win, Box: box, Tables: tables, ExactRows: true})
		if err != nil {
			t.Fatal(err)
		}
		// The same case through the SQL scan, full width and narrow: a narrow
		// scan inside a box reads the cell id too.
		narrow := &ScanSpec{Columns: []string{telco.AttrDuration, "rssi_dbm"}}
		scanned := map[*ScanSpec]map[string][]telco.Record{nil: {}, narrow: {}}
		for spec, got := range scanned {
			err := r.e.ScanTablesSpec(context.Background(), win, box, tables, spec, func(name string, tab *telco.Table) error {
				got[name] = append(got[name], tab.Rows...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		cells := boxCells(r, box)
		for name, schema := range schemas {
			var names []string
			for _, f := range schema.FieldNames() {
				if f == telco.AttrTS || f == telco.AttrDuration || f == "rssi_dbm" || (f == telco.AttrCellID && cells != nil) {
					names = append(names, f)
				}
			}
			got, ok := res.Rows[name]
			if tables != nil && !slices.Contains(tables, name) {
				if ok || len(scanned[nil][name])+len(scanned[narrow][name]) > 0 {
					t.Fatalf("%s: unselected table %s read", what, name)
				}
				continue
			}
			sameRecords(t, what+" narrow scan "+name, scanned[narrow][name], wantScan(inBoxRows(all[name], schema, cells), schema, win, narrow, names))
			want := inBoxRows(wantScan(all[name], schema, win, nil, schema.FieldNames()), schema, cells)
			if !ok {
				if len(want) > 0 {
					t.Fatalf("%s: table %s absent, want %d rows", what, name, len(want))
				}
				continue
			}
			if got.Schema != schema {
				t.Fatalf("%s: %s rows under a projected schema", what, name)
			}
			sameRecords(t, what+" "+name, got.Rows, want)
			sameRecords(t, what+" scan "+name, scanned[nil][name], want)
			checked += len(want)
		}
	}
	if checked == 0 {
		t.Fatal("the random cases selected no rows")
	}
}

// TestExploreStagesNonNegative: the stage breakdown partitions a query's
// wall clock, so no stage may come out negative — at any scan width. The
// window lies inside a sealed day of a reopened store, whose leaves keep no
// summary encoding yet, so summary collection rebuilds several leaves (in
// parallel where it can) and leaf_decode must be carved out of collect as
// elapsed time, not as a sum over workers.
func TestExploreStagesNonNegative(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		r := newRig(t, Options{ScanWorkers: workers})
		r.ingestEpochs(t, telco.EpochsPerDay+2) // seals the first day
		e := reopen(t, r, Options{ScanWorkers: workers})
		for i := 0; i < 6; i++ {
			from := r.cfg.Start.Add(time.Duration(i)*3*time.Hour + 10*time.Minute)
			res, err := e.Explore(Query{Window: telco.NewTimeRange(from, from.Add(4*time.Hour))})
			if err != nil {
				t.Fatal(err)
			}
			if res.ScannedLeaves < 2 {
				t.Fatalf("workers=%d: only %d leaves rebuilt; the window must lie in the sealed day", workers, res.ScannedLeaves)
			}
			seen := map[string]bool{}
			for _, st := range res.Stages {
				seen[st.Name] = true
				if st.Duration < 0 {
					t.Errorf("workers=%d window %d: stage %s = %v", workers, i, st.Name, st.Duration)
				}
			}
			if !seen[StageCollect] || !seen[StageLeafDecode] {
				t.Fatalf("workers=%d: stages %v lack collect/leaf_decode", workers, res.Stages)
			}
			if workers > 1 && len(res.Profile.Workers) == 0 {
				t.Errorf("workers=%d: per-worker split missing from the profile", workers)
			}
		}
	}
}
