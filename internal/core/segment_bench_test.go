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

// reportChunkMetrics folds the engine's chunk-level counters into the
// benchmark output: bytes inflated from the DFS per operation, and the
// chunk-cache hit rate over the whole run.
func reportChunkMetrics(b *testing.B, reg *obs.Registry) {
	b.ReportMetric(float64(inflatedBytes(reg))/float64(b.N), "inflatedB/op")
	hits := float64(reg.Counter("spate_chunk_cache_hits_total", "").Value())
	misses := float64(reg.Counter("spate_chunk_cache_misses_total", "").Value())
	if hits+misses > 0 {
		b.ReportMetric(hits/(hits+misses), "cache-hit-rate")
	}
}

// inflatedBytes reads the engine's cumulative leaf bytes inflated.
func inflatedBytes(reg *obs.Registry) int64 {
	return reg.Counter("spate_leaf_decompressed_bytes_total", "").Value()
}

// pruningStore ingests four CDR epochs into an engine with the given chunk
// target (-1: legacy whole-blob leaves) and chunk-cache budget (-1: off)
// and returns it with its registry and the exact-row query over a
// 10-minute window of the first epoch, which the chunks' timestamp zone
// maps prune most of each leaf for.
func pruningStore(tb testing.TB, chunkSize int, cacheBytes int64) (*Engine, *obs.Registry, Query) {
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
	e, err := Open(fs, g.CellTable(), Options{ChunkSize: chunkSize, ChunkCacheBytes: cacheBytes, Obs: reg})
	if err != nil {
		tb.Fatal(err)
	}
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < 4; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(g.CDRTable(s.Epoch))
		if _, err := e.Ingest(s); err != nil {
			tb.Fatal(err)
		}
	}
	q := Query{
		Window:    telco.NewTimeRange(cfg.Start.Add(10*time.Minute), cfg.Start.Add(20*time.Minute)),
		ExactRows: true,
		Tables:    []string{"CDR"},
	}
	return e, reg, q
}

// BenchmarkExploreWindowPruning measures what the chunked segment format
// buys a narrow windowed scan. Chunks cluster by timestamp, so a 10-minute
// window over half-hour epochs lets the zone maps prune most of each leaf
// before decompression; legacy whole-blob leaves must inflate everything
// the index hands them. The nocache variants disable the chunk cache so
// inflatedB/op isolates pruning alone (TestInflatedBytesCeilings gates
// it); the cached variant shows the steady state where repeats are
// absorbed entirely.
func BenchmarkExploreWindowPruning(b *testing.B) {
	run := func(b *testing.B, chunkSize int, cacheBytes int64) {
		e, reg, q := pruningStore(b, chunkSize, cacheBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.cache.Clear() // defeat the result cache; chunk cache behaves per variant
			if _, err := e.Explore(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportChunkMetrics(b, reg)
	}
	b.Run("segment", func(b *testing.B) { run(b, 4<<10, 0) })
	b.Run("segment-nocache", func(b *testing.B) { run(b, 4<<10, -1) })
	b.Run("legacy-nocache", func(b *testing.B) { run(b, -1, -1) })
}
