package core

import (
	"context"
	"testing"
	"time"

	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

func stageSet(stages []obs.Stage) map[string]time.Duration {
	m := make(map[string]time.Duration, len(stages))
	for _, s := range stages {
		m[s.Name] = s.Duration
	}
	return m
}

func TestIngestReportStages(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, Options{Obs: reg, Tracer: obs.NewTracer(8)})
	reps := r.ingestEpochs(t, 2)

	for _, rep := range reps {
		got := stageSet(rep.Stages)
		for _, want := range []string{StageEncode, StageCompress, StageDFSWrite, StageHighlight, StageIndex} {
			if _, ok := got[want]; !ok {
				t.Errorf("epoch %d: missing stage %q in %v", rep.Epoch, want, rep.Stages)
			}
		}
		// Stages are disjoint stretches of wall time: encode and
		// compress run in per-table workers but are charged the fan-out's
		// wall clock, not the workers' sum (make widths runs this starved,
		// at the box's width and oversubscribed).
		var sum time.Duration
		for _, d := range got {
			if d < 0 {
				t.Errorf("epoch %d: negative stage duration %v", rep.Epoch, got)
			}
			sum += d
		}
		if sum > rep.Total {
			t.Errorf("epoch %d: stages sum to %v, over the total %v: %v", rep.Epoch, sum, rep.Total, rep.Stages)
		}
		// The workers' own figures stay in the report, per table.
		if len(rep.Tables) != 2 || rep.Tables[0].Name != "CDR" || rep.Tables[1].Name != "NMS" {
			t.Fatalf("epoch %d: tables %+v, want CDR then NMS", rep.Epoch, rep.Tables)
		}
		var raw, comp int64
		for _, tb := range rep.Tables {
			if tb.Compress <= 0 || tb.Encode < 0 {
				t.Errorf("epoch %d: table %s times %+v", rep.Epoch, tb.Name, tb)
			}
			raw, comp = raw+tb.RawBytes, comp+tb.CompBytes
		}
		if raw != rep.RawBytes || comp != rep.CompBytes {
			t.Errorf("epoch %d: tables hold %d raw / %d stored bytes, report %d / %d", rep.Epoch, raw, comp, rep.RawBytes, rep.CompBytes)
		}
	}

	// The same breakdown feeds the per-stage histograms and counters.
	if n := reg.Histogram("spate_ingest_stage_seconds", "", nil, "stage", StageCompress).Count(); n != 2 {
		t.Errorf("compress stage observations = %d, want 2", n)
	}
	if v := reg.Counter("spate_ingest_snapshots_total", "").Value(); v != 2 {
		t.Errorf("snapshots counter = %d, want 2", v)
	}
	if v := reg.Counter("spate_ingest_rows_total", "").Value(); v == 0 {
		t.Error("rows counter did not advance")
	}
	if v := reg.Counter("spate_ingest_raw_bytes_total", "").Value(); v == 0 {
		t.Error("raw bytes counter did not advance")
	}
}

func TestExploreResultStages(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(8)
	r := newRig(t, Options{Obs: reg, Tracer: tr})
	r.ingestEpochs(t, 4)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))

	res, err := r.e.Explore(Query{Window: w, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}
	got := stageSet(res.Stages)
	for _, want := range []string{StagePlan, StageCollect, StageMerge, StageRestrict, StageRows} {
		if _, ok := got[want]; !ok {
			t.Errorf("missing stage %q in %v", want, res.Stages)
		}
	}

	// A cache hit carries the original evaluation's breakdown.
	hit, err := r.e.Explore(Query{Window: w, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("second identical query missed cache")
	}
	if len(hit.Stages) != len(res.Stages) {
		t.Errorf("cache hit stages = %v, want %v", hit.Stages, res.Stages)
	}
	if reg.Counter("spate_explore_cache_hits_total", "").Value() != 1 ||
		reg.Counter("spate_explore_cache_misses_total", "").Value() != 1 {
		t.Error("cache counters did not record one hit and one miss")
	}
	if n := reg.Histogram("spate_explore_seconds", "", nil).Count(); n != 1 {
		t.Errorf("explore latency observations = %d, want 1 (uncached only)", n)
	}
	if n := reg.Histogram("spate_explore_stage_seconds", "", nil, "stage", StagePlan).Count(); n != 1 {
		t.Errorf("plan stage observations = %d, want 1", n)
	}

	// The tracer retained the request trees: 4 ingests + 1 uncached explore.
	traces := tr.Traces()
	if len(traces) != 5 {
		t.Fatalf("tracer kept %d traces, want 5: %+v", len(traces), traces)
	}
	last := traces[len(traces)-1]
	if last.Name != "explore" || len(last.Children) == 0 {
		t.Errorf("explore trace = %+v", last)
	}
	// The row loop is one row_fetch span, under the exploration as under an
	// SQL scan's caller, carrying the scan's I/O stages.
	if n := countSpans(last, StageRows); n != 1 {
		t.Errorf("explore trace holds %d row_fetch spans, want 1", n)
	}
	ctx, root := tr.StartSpan(context.Background(), "sql")
	if err := r.e.ScanTablesContext(ctx, w, []string{"CDR"}, func(string, *telco.Table) error { return nil }); err != nil {
		t.Fatal(err)
	}
	root.End()
	if j := root.JSON(); countSpans(j, StageRows) != 1 || countSpans(j, StageDecode) != 1 {
		t.Errorf("SQL scan trace holds %d row_fetch and %d decode spans, want 1 each", countSpans(j, StageRows), countSpans(j, StageDecode))
	}
}

// countSpans counts the spans named name in a span tree.
func countSpans(j obs.SpanJSON, name string) int {
	n := 0
	if j.Name == name {
		n++
	}
	for _, c := range j.Children {
		n += countSpans(c, name)
	}
	return n
}

func TestNoopRegistryDisablesAccounting(t *testing.T) {
	reg := obs.NewNoop()
	r := newRig(t, Options{Obs: reg})
	r.ingestEpochs(t, 1)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(time.Hour))
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	// Stage breakdowns still come back on the report/result — only the
	// registry and tracer sinks are disabled.
	if len(res.Stages) == 0 {
		t.Error("noop registry suppressed the result's stage breakdown")
	}
	if n := reg.Histogram("spate_explore_seconds", "", nil).Count(); n != 0 {
		t.Errorf("noop histogram advanced to %d", n)
	}
}

// BenchmarkExplore compares a fully instrumented engine (tracing spans,
// metrics registry, and a per-query profile attached via context) against
// one wired to a no-op registry; the delta is the observability overhead,
// which must stay marginal (<5%) because hot-path updates are single
// atomics and plain counter increments.
func BenchmarkExplore(b *testing.B) {
	run := func(b *testing.B, opts Options, reg *obs.Registry, profiled bool) {
		cfg := gen.DefaultConfig(0.004)
		cfg.Antennas = 30
		cfg.Users = 300
		cfg.CDRPerEpoch = 120
		g := gen.New(cfg)
		fs, err := dfs.NewCluster(b.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 3, Replication: 2})
		if err != nil {
			b.Fatal(err)
		}
		e, err := Open(fs, g.CellTable(), opts)
		if err != nil {
			b.Fatal(err)
		}
		e0 := telco.EpochOf(cfg.Start)
		for i := 0; i < 4; i++ {
			s := snapshot.New(e0 + telco.Epoch(i))
			s.Add(g.CDRTable(s.Epoch))
			if _, err := e.Ingest(s); err != nil {
				b.Fatal(err)
			}
		}
		q := Query{Window: telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour))}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.cache.Clear() // measure the full evaluation path every time
			ctx := context.Background()
			if profiled {
				ctx, _ = ContextWithProfile(ctx)
			}
			if _, err := e.ExploreContext(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if reg != nil {
			reportChunkMetrics(b, reg)
		}
	}
	b.Run("instrumented", func(b *testing.B) {
		reg := obs.NewRegistry()
		run(b, Options{Obs: reg, Tracer: obs.NewTracer(16)}, reg, true)
	})
	b.Run("noop", func(b *testing.B) {
		run(b, Options{Obs: obs.NewNoop()}, nil, false)
	})
}
