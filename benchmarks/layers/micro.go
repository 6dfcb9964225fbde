package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"spate/benchmarks/harness"
	"spate/internal/compute"
	"spate/internal/core"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/memtable"
	"spate/internal/obs"
	"spate/internal/raw"
	"spate/internal/scanspec"
	"spate/internal/segment"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/tasks"
	"spate/internal/telco"
	"spate/internal/wal"
)

// sqlShapes are scan-cold's SQL window lengths, used wherever a workload's
// own mix lacks a class.
var sqlShapes = harness.Specs(false)[harness.ScanCold].Shape

// dataWindow is the span the engine holds right now (on stream-mixed the
// base and what has been appended so far).
func (t *trun) dataWindow() telco.TimeRange {
	w := t.st.window
	if last, ok := t.st.eng.LastEpoch(); ok && t.st.local == nil && last.End().Before(w.To) {
		w.To = last.End()
	}
	return w
}

// timeSQL runs one statement through the direct SQL engine.
func (t *trun) timeSQL(eng *sqlengine.Engine, op harness.Op) (float64, int, bool) {
	t0 := time.Now()
	rs, err := eng.QueryContext(context.Background(), op.SQL())
	d := ms(time.Since(t0))
	if !t.check(op.Class, err) {
		return 0, 0, false
	}
	return d, len(rs.Rows), true
}

// sqlClasses completes the per-class SQL medians: every class the
// workload's own mix did not send is run a few times as direct calls with
// scan-cold's shapes, and the statements are timed through the parser.
func (t *trun) sqlClasses(cells []harness.Point) {
	w := t.dataWindow()
	classes := []string{harness.ClassT1, harness.ClassT2, harness.ClassT2Sel, harness.ClassFullRow, harness.ClassT3, harness.ClassT4}
	side := harness.Spec{Shape: sqlShapes, Mix: classes}
	_, ops := side.Ops(t.seed+1, 8*len(classes), w.From, w.To, cells)
	var parse []float64
	for _, op := range ops {
		if len(t.direct[op.Class]) < 8 {
			if book := t.directSQL(op, nil); book != nil {
				book()
			}
		}
		t0 := time.Now()
		for i := 0; i < 50; i++ {
			if _, err := sqlengine.Parse(op.SQL()); err != nil {
				t.fail("parse: %v", err)
				break
			}
		}
		parse = append(parse, us(time.Since(t0))/50)
	}
	for _, c := range classes {
		t.m["sqlengine."+c+"_p50_ms"] = harness.Median(t.direct[c])
	}
	t.m["sqlengine.parse_us"] = mean(parse)
	t.m["sqlengine.rows_scanned_per_row_returned"] = harness.Div(float64(t.st.fwRows.Load()), t.rowsReturned)
}

// sampleLeaves picks up to n stored, undecayed leaves spread over the data.
func (t *trun) sampleLeaves(n int) []*index.Node {
	all := t.st.eng.Tree().LeavesIn(t.st.window, nil)
	var live []*index.Node
	for _, l := range all {
		if !l.Decayed && l.DataRefs["CDR"] != "" {
			live = append(live, l)
		}
	}
	if len(live) <= n {
		return live
	}
	out := make([]*index.Node, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, live[i*len(live)/n])
	}
	return out
}

// micro times the modules below the scan loops through their public
// functions, on leaves the store holds: DFS ranged reads, segment open and
// chunk decode, the codec, the index walk, summary merge and decode, the
// pushdown predicate and partial merge.
func (t *trun) micro() {
	eng := t.st.eng
	fs, codec := eng.FS(), eng.Codec()
	ctx := context.Background()
	var readUs, openUs []float64
	var colBytes, rowBytes, inflateBytes, deflateBytes, deflatedTo float64
	var colT, rowT, inflateT, deflateT time.Duration
	for _, leaf := range t.sampleLeaves(8) {
		path := leaf.DataRefs["CDR"]
		f, err := fs.Open(path)
		if !t.check("dfs open", err) {
			continue
		}
		for off := int64(0); off+4096 <= f.Size() && off < 16*65536; off += 65536 {
			t0 := time.Now()
			_, err := fs.ReadFileRange(path, off, 4096)
			readUs = append(readUs, us(time.Since(t0)))
			t.check("dfs range read", err)
		}
		t0 := time.Now()
		r, err := segment.Open(f, f.Size(), codec)
		openUs = append(openUs, us(time.Since(t0)))
		if !t.check("segment open", err) {
			continue
		}
		for i := 0; i < r.NumChunks() && i < 4; i++ {
			t0 = time.Now()
			_, n, err := r.ChunkColumns(i, []int{0, 5, 6, 7}) // ts, duration, upflux, downflux
			colT += time.Since(t0)
			if t.check("column decode", err) {
				colBytes += float64(n)
			}
			t0 = time.Now()
			text, err := r.ChunkData(i)
			rowT += time.Since(t0)
			if !t.check("full-row decode", err) {
				continue
			}
			rowBytes += float64(len(text))
			t0 = time.Now()
			packed := codec.Compress(nil, text)
			deflateT += time.Since(t0)
			deflateBytes += float64(len(text))
			deflatedTo += float64(len(packed))
			t0 = time.Now()
			_, err = codec.Decompress(nil, packed)
			inflateT += time.Since(t0)
			if t.check("inflate", err) {
				inflateBytes += float64(len(text))
			}
		}
	}
	mbs := func(bytes float64, d time.Duration) float64 { return harness.Div(bytes/1e6, d.Seconds()) }
	t.m["dfs.range_read_us"] = mean(readUs)
	t.m["segment.open_us"] = mean(openUs)
	t.m["segment.column_decode_mb_s"] = mbs(colBytes, colT)
	t.m["segment.fullrow_decode_mb_s"] = mbs(rowBytes, rowT)
	t.m["compress.inflate_mb_s"] = mbs(inflateBytes, inflateT)
	t.m["compress.deflate_mb_s"] = mbs(deflateBytes, deflateT)
	t.m["compress.ratio"] = harness.Div(deflateBytes, deflatedTo)

	// index and highlights, over six hours in the middle of the data.
	w := t.dataWindow()
	mid := w.From.Add(w.Duration() / 2).Truncate(time.Hour)
	six := telco.NewTimeRange(mid.Add(-3*time.Hour), mid.Add(3*time.Hour))
	tree := eng.Tree()
	t0 := time.Now()
	for i := 0; i < 1000; i++ {
		off := time.Duration(i%180) * time.Minute
		tree.FindCovering(telco.NewTimeRange(six.From.Add(off), six.From.Add(off+time.Hour)))
	}
	t.m["index.find_covering_us"] = us(time.Since(t0)) / 1000
	parts, _, err := eng.ExploreParts(ctx, six)
	if t.check("explore parts", err) && len(parts) > 0 {
		t0 = time.Now()
		for i := 0; i < 5; i++ {
			highlights.Merge(six, parts...)
		}
		t.m["highlights.merge_us"] = us(time.Since(t0)) / 5
		enc, err := parts[0].Encode()
		if t.check("summary encode", err) {
			t0 = time.Now()
			for i := 0; i < 20; i++ {
				if _, err := highlights.Decode(enc); err != nil {
					t.fail("summary decode: %v", err)
					break
				}
			}
			t.m["highlights.decode_us"] = us(time.Since(t0)) / 20
		}
	}

	// scanspec: the selective predicate row by row, and a partial merge.
	hour := telco.NewTimeRange(mid, mid.Add(time.Hour))
	pred := scanspec.Pred{Col: telco.AttrDuration, Op: ">", Kind: "int", Val: "300"}
	var rows, evalNs float64
	err = eng.ScanTablesContext(ctx, hour, []string{"CDR"}, func(_ string, tab *telco.Table) error {
		di := tab.Schema.FieldIndex(telco.AttrDuration)
		t0 := time.Now()
		for rep := 0; rep < 20; rep++ {
			for _, r := range tab.Rows {
				pred.Eval(r[di])
			}
		}
		evalNs += float64(time.Since(t0))
		rows += 20 * float64(tab.Len())
		return nil
	})
	t.check("scan for eval", err)
	t.m["scanspec.eval_ns_per_row"] = harness.Div(evalNs, rows)
	spec := &scanspec.Spec{GroupBy: telco.AttrCellID,
		Aggs: []scanspec.Agg{{Fn: "SUM", Col: "drop_calls"}, {Fn: "SUM", Col: "call_attempts"}}}
	a, errA := eng.AggregatePartials(ctx, telco.NewTimeRange(six.From, mid), "NMS", spec)
	b, errB := eng.AggregatePartials(ctx, telco.NewTimeRange(mid, six.To), "NMS", spec)
	if t.check("aggregate partials", errA) && t.check("aggregate partials", errB) {
		t0 = time.Now()
		for i := 0; i < 20; i++ {
			scanspec.Merge(append([]scanspec.Partial(nil), a...), b)
		}
		t.m["scanspec.merge_us"] = us(time.Since(t0)) / 20
	}

	// memtable and WAL on their own, fed one epoch of the trace.
	sn := t.readSnapshot(len(t.st.epochs) / 2)
	if sn == nil {
		return
	}
	mt := memtable.New(obs.NewNoop())
	var inserted float64
	t0 = time.Now()
	for _, name := range sn.TableNames() {
		for _, r := range sn.Table(name).Rows {
			if _, err := mt.Insert(name, r); err != nil {
				t.fail("memtable insert: %v", err)
				break
			}
			inserted++
		}
	}
	t.m["memtable.insert_ns_per_row"] = harness.Div(float64(time.Since(t0)), inserted)
	ew := telco.NewTimeRange(sn.Epoch.Start(), sn.Epoch.End())
	t0 = time.Now()
	for i := 0; i < 3; i++ {
		mt.Parts(ew, sn.Epoch-1, highlights.DefaultConfig())
	}
	t.m["memtable.scan_ms"] = ms(time.Since(t0)) / 3

	dir := filepath.Join(t.st.work, "wal-micro")
	log, err := wal.Open(dir, wal.Options{Obs: obs.NewNoop()})
	if !t.check("wal open", err) {
		return
	}
	defer os.RemoveAll(dir)
	defer log.Close()
	payload := make([]byte, 16<<10) // about one 250-row NMS batch
	var appendUs, commitUs []float64
	for i := 0; i < 100; i++ {
		t0 = time.Now()
		pos, err := log.Append(payload)
		t1 := time.Now()
		if err == nil {
			err = log.Commit(pos)
		}
		t2 := time.Now()
		if !t.check("wal append", err) {
			break
		}
		appendUs = append(appendUs, us(t1.Sub(t0)))
		commitUs = append(commitUs, us(t2.Sub(t1)))
	}
	t.m["wal.append_us"] = mean(appendUs)
	t.m["wal.commit_us"] = mean(commitUs)
}

// readSnapshot loads the i-th epoch of the trace.
func (t *trun) readSnapshot(i int) *snapshot.Snapshot {
	var got *snapshot.Snapshot
	err := t.st.forEachSnapshotFrom(i, 1, func(sn *snapshot.Snapshot) error { got = sn; return nil })
	t.check("read snapshot", err)
	return got
}

// streaming measures, on stream-mixed, what only direct calls show: how
// long after Append a row answers SQL, and what sealing an epoch costs.
func (t *trun) streaming(lp *loopback) {
	st := t.st
	if st.streamer == nil {
		return
	}
	ctx := context.Background()
	var ttq []float64
	for i := 0; i < 5; i++ {
		j := lp.feed.Next()
		if j == nil {
			break
		}
		first, err := telco.DecodeLine(telco.SchemaByName(j.Table), j.Lines[0])
		if !t.check("decode", err) {
			continue
		}
		ts := first[0].Time()
		q := "SELECT COUNT(*) FROM " + j.Table + " WHERE ts >= '" + ts.Format(harness.TimeLayout) +
			"' AND ts < '" + ts.Add(time.Second).Format(harness.TimeLayout) + "'"
		count := func() int64 {
			rs, err := st.sql.QueryContext(ctx, q)
			if err != nil || len(rs.Rows) == 0 {
				return -1
			}
			return rs.Rows[0][0].Int64()
		}
		before := count()
		t0 := time.Now()
		if !t.check("append", appendDirect(ctx, st, j)) {
			continue
		}
		visible := time.Since(t0)
		for count() <= before && time.Since(t0) < 2*time.Second {
			visible = time.Since(t0)
		}
		ttq = append(ttq, ms(visible))
	}
	t.m["core.stream_ttq_ms"] = mean(ttq)
	buffered := len(st.streamer.Memtable().Epochs(-1 << 62))
	t0 := time.Now()
	err := st.streamer.SealAll(ctx)
	if t.check("seal all", err) && buffered > 0 {
		t.m["core.seal_epoch_ms"] = ms(time.Since(t0)) / float64(buffered)
	}
}

// smallEngine ingests the first n epochs into a store of its own.
func (t *trun) smallEngine(name string, n int, opts core.Options) (*core.Engine, error) {
	fs, err := dfs.NewCluster(filepath.Join(t.st.work, name), dfs.Config{DataNodes: 1, Replication: 1})
	if err != nil {
		return nil, err
	}
	eng, err := core.Open(fs, t.st.cellTable, opts)
	if err != nil {
		return nil, err
	}
	err = t.st.forEachSnapshotFrom(0, n, func(sn *snapshot.Snapshot) error {
		_, err := eng.Ingest(sn)
		return err
	})
	return eng, err
}

// sideEngines measures what needs an engine configured differently from
// the workload's: the cost of the metrics registry on the hottest path
// (same data, default against no-op registry), and decay — the horizon is
// part of Options and decay follows data time, so a small store is opened
// with a four-hour horizon and decayed at an injected now.
func (t *trun) sideEngines() {
	ctx := context.Background()
	n := 8
	if n > len(t.st.epochs) {
		n = len(t.st.epochs)
	}
	four := telco.NewTimeRange(t.st.epochs[0].Start(), t.st.epochs[n-1].End())
	hot := func(name string, opts core.Options) float64 {
		eng, err := t.smallEngine(name, n, opts)
		if !t.check("side engine", err) {
			return 0
		}
		eng.FinishIngest()
		// ROADMAP: "v3 full-row slower than v2". SELECT * over the store,
		// chunk cache cold, on the current and on the row-major format.
		t0 := time.Now()
		rows := 0
		err = eng.ScanTablesContext(ctx, four, []string{"CDR"}, func(_ string, tab *telco.Table) error {
			rows += tab.Len()
			return nil
		})
		if t.check("full-row scan", err) {
			t.rep.Extra["fullrow_scan_ms_"+name] = ms(time.Since(t0))
		}
		q := core.Query{Window: four}
		if _, err := eng.ExploreContext(ctx, q); !t.check("explore", err) {
			return 0
		}
		// A cached exploration takes a microsecond or two: enough of them
		// to outlast a GC cycle.
		const calls = 200000
		t0 = time.Now()
		for i := 0; i < calls; i++ {
			eng.ExploreContext(ctx, q)
		}
		return us(time.Since(t0)) / calls
	}
	with, without := hot("v3", core.Options{}), hot("v3-noop-registry", core.Options{Obs: obs.NewNoop()})
	t.m["obs.hot_overhead_ratio"] = harness.Div(with, without)
	hot("v2", core.Options{SegmentVersion: segment.RowVersion})

	n = 16
	if n > len(t.st.epochs) {
		n = len(t.st.epochs)
	}
	eng, err := t.smallEngine("decay", n, core.Options{Policy: decay.Policy{KeepRaw: 4 * time.Hour}})
	if !t.check("decay engine", err) {
		return
	}
	eng.FinishIngest()
	stored := eng.FS().Usage().StoredBytes
	end := t.st.epochs[n-1].End()
	t0 := time.Now()
	rep, err := eng.DecayRun(end.Add(2*time.Hour), core.DecayBudget{})
	if t.check("decay", err) {
		t.m["decay.run_ms"] = ms(time.Since(t0))
		t.m["decay.bytes_freed_ratio"] = harness.Div(float64(rep.BytesFreed), float64(stored))
	}
	var decayed []float64
	from := t.st.epochs[0].Start()
	for i := 0; i < 20; i++ {
		w := telco.NewTimeRange(from.Add(time.Duration(i+1)*time.Minute), from.Add(3*time.Hour+time.Duration(i)*time.Minute))
		t0 = time.Now()
		_, err := eng.ExploreContext(ctx, core.Query{Window: w})
		if t.check("explore decayed", err) {
			decayed = append(decayed, ms(time.Since(t0)))
		}
	}
	t.m["core.explore_decayed_ms"] = mean(decayed)
}

// rawBaseline sets SPATE against the simple system: the same windows over
// the first day of the trace kept as flat text files (internal/raw) and
// read through the same SQL engine. Below 1 the layers earn their keep.
func (t *trun) rawBaseline(cells []harness.Point) {
	st := t.st
	ctx := context.Background()
	w := t.dataWindow()
	if day := w.From.Add(24 * time.Hour); day.Before(w.To) {
		w.To = day
	}
	n := int(w.Duration() / telco.EpochDuration)
	fs, err := dfs.NewCluster(filepath.Join(st.work, "raw"), dfs.Config{DataNodes: 1, Replication: 1})
	if !t.check("raw dfs", err) {
		return
	}
	store, err := raw.Open(fs, st.cellTable)
	if !t.check("raw open", err) {
		return
	}
	err = st.forEachSnapshotFrom(0, n, func(sn *snapshot.Snapshot) error {
		_, err := store.Ingest(sn)
		return err
	})
	if !t.check("raw ingest", err) {
		return
	}
	rawFW := tasks.Raw{S: store}
	rawSQL := sqlengine.NewEngine(tasks.Catalog(rawFW))
	classes := []string{harness.ClassExplore, harness.ClassT1, harness.ClassT2, harness.ClassT3, harness.ClassT4}
	shape := harness.Shape{harness.ClassExplore: time.Hour}
	for c, d := range sqlShapes {
		if harness.IsSQL(c) {
			shape[c] = d
		}
	}
	_, ops := harness.Spec{Shape: shape, Mix: classes}.Ops(t.seed+2, 5*len(classes), w.From, w.To, cells)
	spate, flat := make(map[string][]float64), make(map[string][]float64)
	for _, op := range ops {
		tr := telco.NewTimeRange(op.From, op.To)
		if harness.IsSQL(op.Class) {
			if d, _, ok := t.timeSQL(st.sql, op); ok {
				spate[op.Class] = append(spate[op.Class], d)
			}
			if d, _, ok := t.timeSQL(rawSQL, op); ok {
				flat[op.Class] = append(flat[op.Class], d)
			}
			continue
		}
		// An exploration on flat files is a scan of the window that counts
		// rows per cell.
		t0 := time.Now()
		var err error
		if st.local != nil {
			_, err = st.local.Coordinator.Explore(ctx, core.Query{Window: tr})
		} else {
			st.eng.ClearCache()
			_, err = st.eng.ExploreContext(ctx, core.Query{Window: tr})
		}
		if t.check("explore", err) {
			spate[op.Class] = append(spate[op.Class], ms(time.Since(t0)))
		}
		perCell := make(map[int64]int64)
		t0 = time.Now()
		err = rawFW.Scan(ctx, tr, []string{"CDR", "NMS"}, func(_ string, tab *telco.Table) error {
			ci := tab.Schema.FieldIndex(telco.AttrCellID)
			for _, r := range tab.Rows {
				perCell[r[ci].Int64()]++
			}
			return nil
		})
		if t.check("raw scan", err) {
			flat[op.Class] = append(flat[op.Class], ms(time.Since(t0)))
		}
	}
	for _, c := range classes {
		t.m["raw."+c+"_ratio"] = harness.Div(harness.Median(spate[c]), harness.Median(flat[c]))
	}
}

// heavyTasks times T5–T8, which have no HTTP route, as direct calls over
// one hour in the middle of the data.
func (t *trun) heavyTasks() {
	var fw tasks.Framework = tasks.Spate{E: t.st.eng}
	if t.st.local != nil {
		fw = tasks.Cluster{C: t.st.local.Coordinator}
	}
	w := t.dataWindow()
	mid := w.From.Add(w.Duration() / 2).Truncate(time.Hour)
	hour := telco.NewTimeRange(mid, mid.Add(time.Hour))
	pool := compute.NewPool(2)
	timeIt := func(name string, fn func() error) {
		t0 := time.Now()
		err := fn()
		if t.check(name, err) {
			t.m[name] = ms(time.Since(t0))
		}
	}
	timeIt("tasks.t5_privacy_ms", func() error { _, _, err := tasks.T5Privacy(fw, hour, 5); return err })
	timeIt("tasks.t6_stats_ms", func() error { _, err := tasks.T6Statistics(fw, pool, hour); return err })
	timeIt("tasks.t7_kmeans_ms", func() error { _, err := tasks.T7Clustering(fw, pool, hour, 4); return err })
	timeIt("tasks.t8_linreg_ms", func() error { _, err := tasks.T8Regression(fw, pool, hour); return err })
}

// lifecycle times the maintenance jobs as direct calls on the workload's
// own store: compaction of up to eight leaves, and a full scrub.
func (t *trun) lifecycle() {
	t0 := time.Now()
	_, err := t.st.eng.Compact(context.Background(), core.CompactOptions{MaxLeaves: 8})
	if t.check("compact", err) {
		t.m["lifecycle.compact_s"] = time.Since(t0).Seconds()
	}
	t0 = time.Now()
	_, err = t.st.eng.FS().Scrub()
	if t.check("scrub", err) {
		t.m["lifecycle.scrub_s"] = time.Since(t0).Seconds()
	}
}
