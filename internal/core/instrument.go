package core

import (
	"time"

	"spate/internal/obs"
)

// Ingest and exploration stage names, shared by the metrics registry, the
// span tracer and the per-report Stages breakdowns.
const (
	StageEncode    = "encode"       // timestamp sort; wire text of row-major leaves
	StageCompress  = "compress"     // segment write: field render, column packing, block codec
	StageDFSWrite  = "dfs_write"    // replicated block writes
	StageHighlight = "highlight"    // leaf summary build
	StageIndex     = "index_insert" // temporal-tree append
	StageSeal      = "seal"         // completed-period summary rollup
	StagePersist   = "persist_meta" // leaf metadata journal
	StageDecay     = "decay"        // fungus plan + apply

	StagePlan       = "plan"        // covering node + leaf lookup
	StageCollect    = "collect"     // summary part gathering
	StageLeafDecode = "leaf_decode" // snapshot decompress/decode for summaries
	StageMerge      = "merge"       // summary merge
	StageRestrict   = "restrict"    // spatial restriction to the box
	StageRows       = "row_fetch"   // exact-row decompression

	StageCacheLookup = "cache_lookup" // chunk-cache probes
	StageDFSRead     = "dfs_read"     // ranged DFS chunk reads + inflate
	StageDecode      = "decode"       // wire-text table parsing
)

var ingestStageNames = []string{
	StageEncode, StageCompress, StageDFSWrite, StageHighlight,
	StageIndex, StageSeal, StagePersist, StageDecay,
}

var exploreStageNames = []string{
	StagePlan, StageCollect, StageLeafDecode, StageMerge, StageRestrict, StageRows,
}

// engineMetrics pre-resolves every series the engine's hot paths touch, so
// per-request cost is a handful of atomic adds.
type engineMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	ingestStage   map[string]*obs.Histogram
	ingestSec     *obs.Histogram
	ingestSnaps   *obs.Counter
	ingestRows    *obs.Counter
	ingestRawB    *obs.Counter
	ingestCompB   *obs.Counter
	ingestErrors  *obs.Counter
	exploreStage  map[string]*obs.Histogram
	exploreSec    *obs.Histogram
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	scannedLeaves *obs.Counter
	chunksScanned *obs.Counter
	chunksPruned  *obs.Counter
	leafBytes     *obs.Counter
	parallelScans *obs.Counter
	parallelUnits *obs.Counter
	sfShared      *obs.Counter
	resShared     *obs.Counter
	decayRuns     *obs.Counter
	decayLeaves   *obs.Counter
	decayPruned   *obs.Counter
	decayBytes    *obs.Counter
}

func newEngineMetrics(r *obs.Registry, t *obs.Tracer) *engineMetrics {
	m := &engineMetrics{
		reg:    r,
		tracer: t,

		ingestStage:   make(map[string]*obs.Histogram, len(ingestStageNames)),
		ingestSec:     r.Histogram("spate_ingest_seconds", "End-to-end snapshot ingestion latency.", nil),
		ingestSnaps:   r.Counter("spate_ingest_snapshots_total", "Snapshots ingested."),
		ingestRows:    r.Counter("spate_ingest_rows_total", "Rows ingested across all tables."),
		ingestRawB:    r.Counter("spate_ingest_raw_bytes_total", "Uncompressed snapshot bytes ingested."),
		ingestCompB:   r.Counter("spate_ingest_stored_bytes_total", "Compressed snapshot bytes written to the DFS (logical)."),
		ingestErrors:  r.Counter("spate_ingest_errors_total", "Failed ingestions."),
		exploreStage:  make(map[string]*obs.Histogram, len(exploreStageNames)),
		exploreSec:    r.Histogram("spate_explore_seconds", "End-to-end exploration latency (uncached).", nil),
		cacheHits:     r.Counter("spate_explore_cache_hits_total", "Explorations served from the result cache."),
		cacheMisses:   r.Counter("spate_explore_cache_misses_total", "Explorations that missed the result cache."),
		scannedLeaves: r.Counter("spate_explore_scanned_leaves_total", "Snapshots decompressed during exploration."),
		chunksScanned: r.Counter("spate_explore_scanned_chunks_total", "Leaf chunks decompressed during scans."),
		chunksPruned:  r.Counter("spate_explore_pruned_chunks_total", "Leaf chunks skipped through segment zone maps."),
		leafBytes:     r.Counter("spate_leaf_decompressed_bytes_total", "Leaf bytes inflated from the DFS (chunk-cache misses only)."),
		parallelScans: r.Counter("spate_scan_parallel_fanouts_total", "Parallel scan fan-outs dispatched through the scheduler."),
		parallelUnits: r.Counter("spate_scan_parallel_units_total", "Leaf-by-table scan units executed by the parallel scheduler."),
		sfShared:      r.Counter("spate_scan_singleflight_shared_total", "Chunk decodes shared from a concurrent in-flight inflate."),
		resShared:     r.Counter("spate_result_singleflight_shared_total", "Explorations served from a concurrent identical in-flight query."),
		decayRuns:     r.Counter("spate_decay_runs_total", "Decay runs that evicted at least one entry."),
		decayLeaves:   r.Counter("spate_decay_leaves_total", "Leaves whose raw data the fungus evicted."),
		decayPruned:   r.Counter("spate_decay_pruned_nodes_total", "Index nodes pruned into coarser summaries."),
		decayBytes:    r.Counter("spate_decay_bytes_freed_total", "Compressed bytes reclaimed by decay."),
	}
	for _, s := range ingestStageNames {
		m.ingestStage[s] = r.Histogram("spate_ingest_stage_seconds",
			"Ingestion stage latency by stage.", nil, "stage", s)
	}
	for _, s := range exploreStageNames {
		m.exploreStage[s] = r.Histogram("spate_explore_stage_seconds",
			"Exploration stage latency by stage.", nil, "stage", s)
	}
	return m
}

// stageRecorder accumulates named stage wall times for one request and
// flushes them to histograms, a Stages slice and (optionally) a span.
// Each stage remembers the wall clock of its first add: flush attaches the
// stage to the span at that real start, so the trace waterfall keeps
// execution order instead of back-dating every stage from flush time
// (which would sort them by duration).
type stageRecorder struct {
	names  []string
	durs   map[string]int64 // nanoseconds
	starts map[string]time.Time
}

func newStageRecorder() *stageRecorder {
	return &stageRecorder{durs: make(map[string]int64, 8), starts: make(map[string]time.Time, 8)}
}

// add accrues d nanoseconds under name (stages may run multiple times, e.g.
// per-table compression). The stage's first add fixes its start time: the
// accrued duration d is assumed to have just elapsed.
func (sr *stageRecorder) add(name string, ns int64) {
	if _, ok := sr.durs[name]; !ok {
		sr.names = append(sr.names, name)
		sr.starts[name] = time.Now().Add(-time.Duration(ns))
	}
	sr.durs[name] += ns
}

// flush records every stage into hists, attaches them to span (if any) and
// returns the breakdown in first-seen order.
func (sr *stageRecorder) flush(hists map[string]*obs.Histogram, span *obs.Span) []obs.Stage {
	out := make([]obs.Stage, 0, len(sr.names))
	for _, n := range sr.names {
		d := sr.durs[n]
		out = append(out, obs.Stage{Name: n, Duration: time.Duration(d)})
		if h := hists[n]; h != nil {
			h.Observe(float64(d) / 1e9)
		}
		if n != StageRows { // the row loop times itself as a span of its own
			span.AddStageAt(n, sr.starts[n], time.Duration(d))
		}
	}
	return out
}

// Tracer exposes the engine's span tracer (nil when tracing is disabled),
// so RPC handlers can root shard-side spans on the same ring the engine's
// own spans land in.
func (e *Engine) Tracer() *obs.Tracer { return e.met.tracer }

// Obs exposes the engine's metrics registry, so the layers serving the
// engine (cluster nodes, the serving tier) account into the same
// registry the engine reports to.
func (e *Engine) Obs() *obs.Registry { return e.opts.Obs }
