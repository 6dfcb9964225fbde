package core

import (
	"context"
	"testing"
	"time"

	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// columnarStore ingests four CDR epochs at the given segment version with
// the chunk cache disabled, so every scan pays its full inflate, and
// returns the engine, its registry and the scans' two-hour window.
func columnarStore(tb testing.TB, version int) (*Engine, *obs.Registry, telco.TimeRange) {
	tb.Helper()
	reg := obs.NewRegistry()
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas = 30
	cfg.Users = 300
	cfg.CDRPerEpoch = 600
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(tb.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 3, Replication: 2})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := Open(fs, g.CellTable(), Options{SegmentVersion: version, Obs: reg})
	if err != nil {
		tb.Fatal(err)
	}
	disableChunkCache(e)
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < 4; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(g.CDRTable(s.Epoch))
		if _, err := e.Ingest(s); err != nil {
			tb.Fatal(err)
		}
	}
	e.FinishIngest()
	return e, reg, telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour))
}

// countRows scans the window's rows of the given tables (nil: all) under
// an optional pushdown spec and returns how many it handed out.
func countRows(e *Engine, w telco.TimeRange, tables []string, spec *scanspec.Spec) (int, error) {
	rows := 0
	err := e.ScanTablesSpec(context.Background(), w, geo.Rect{}, tables, spec, func(_ string, t *telco.Table) error {
		rows += t.Len()
		return nil
	})
	return rows, err
}

// durationAtLeast120 is the selective predicate of the columnar scans.
var durationAtLeast120 = scanspec.Pred{Col: "duration", Op: ">=", Kind: "int", Val: "120"}

// columnarScans are the scan shapes BenchmarkColumnarScan times and
// TestInflatedBytesCeilings gates, each over a columnarStore of its
// segment version; run returns the rows or partials it matched.
var columnarScans = []struct {
	name    string
	version int
	run     func(e *Engine, w telco.TimeRange) (int, error)
}{
	{"v2-selective", 2, selectiveScan},
	{"v3-selective", 3, selectiveScan},
	{"v3-fullrow", 3, func(e *Engine, w telco.TimeRange) (int, error) {
		return countRows(e, w, []string{"CDR"}, nil)
	}},
	{"v3-aggregate", 3, func(e *Engine, w telco.TimeRange) (int, error) {
		parts, err := e.AggregatePartials(context.Background(), w, "CDR", &scanspec.Spec{
			Preds:     []scanspec.Pred{durationAtLeast120},
			Aggs:      []scanspec.Agg{{Fn: "COUNT"}, {Fn: "SUM", Col: "duration"}},
			RequireTS: true,
		})
		return len(parts), err
	}},
}

// selectiveScan is a two-column predicate scan of CDR.
func selectiveScan(e *Engine, w telco.TimeRange) (int, error) {
	return countRows(e, w, []string{"CDR"}, &scanspec.Spec{
		Columns: []string{"caller", "duration"},
		Preds:   []scanspec.Pred{durationAtLeast120},
	})
}

// BenchmarkColumnarScan measures what the v3 column-major layout buys a
// selective query. All variants run with the chunk cache disabled so
// inflatedB/op isolates the format: v2-selective must inflate whole
// row-major chunks to answer a two-column predicate scan, v3-selective
// decodes only the referenced column streams, v3-fullrow pays the full
// decode as the no-win baseline, and v3-aggregate answers the same
// predicate as pushed-down partials (zone-decidable chunks never decode).
// TestInflatedBytesCeilings gates each variant's inflated bytes.
func BenchmarkColumnarScan(b *testing.B) {
	for _, s := range columnarScans {
		b.Run(s.name, func(b *testing.B) {
			e, reg, w := columnarStore(b, s.version)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := s.run(e, w)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("scan matched no rows")
				}
			}
			b.StopTimer()
			reportChunkMetrics(b, reg)
		})
	}
}
