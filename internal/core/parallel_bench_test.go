package core

import (
	"testing"
	"time"

	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// parallelStore ingests twelve CDR+NMS epochs into an engine scanning with
// the given worker count, the chunk cache disabled so every scan pays the
// full read path, over a DFS whose block reads are throttled to readMBps
// (0: unthrottled; ingest never is). It returns the engine, its registry
// and the window covering every epoch.
func parallelStore(tb testing.TB, workers int, readMBps float64) (*Engine, *obs.Registry, telco.TimeRange) {
	tb.Helper()
	const epochs = 12
	reg := obs.NewRegistry()
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas = 30
	cfg.Users = 300
	cfg.CDRPerEpoch = 400
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(tb.TempDir(), dfs.Config{
		BlockSize: 1 << 20, DataNodes: 3, Replication: 2,
		ReadMBps: readMBps,
		Obs:      obs.NewNoop(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := Open(fs, g.CellTable(), Options{ScanWorkers: workers, Obs: reg})
	if err != nil {
		tb.Fatal(err)
	}
	disableChunkCache(e)
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < epochs; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(g.CDRTable(s.Epoch))
		s.Add(g.NMSTable(s.Epoch))
		if _, err := e.Ingest(s); err != nil {
			tb.Fatal(err)
		}
	}
	e.FinishIngest()
	return e, reg, telco.NewTimeRange(cfg.Start, cfg.Start.Add(time.Duration(epochs)*30*time.Minute))
}

// BenchmarkParallelScan measures the parallel leaf-scan pipeline against
// an I/O-bound store: the DFS models the paper's slow virtualized disks
// (block reads throttled to 4 MB/s), so a sequential scan spends most of
// its wall clock waiting on one read at a time while the worker pool
// overlaps them. inflatedB/op — a function of the data alone — stays
// identical across worker counts, which TestInflatedBytesCeilings asserts.
func BenchmarkParallelScan(b *testing.B) {
	run := func(b *testing.B, workers int) {
		e, reg, w := parallelStore(b, workers, 4)
		rows := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := countRows(e, w, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			rows += n
		}
		b.StopTimer()
		if rows == 0 {
			b.Fatal("scan matched no rows")
		}
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
		reportChunkMetrics(b, reg)
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=8", func(b *testing.B) { run(b, 8) })
}
