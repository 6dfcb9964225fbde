package core

import "context"

// Profile is the per-query cost breakdown accumulated along the scan path:
// which chunks the zone maps and cell blooms pruned, what the chunk cache
// absorbed, how many bytes inflated out of the codec, and how many ranged
// DFS reads were issued. On a cluster result the totals sum the surviving
// shards and Shards carries the per-shard split.
type Profile struct {
	TraceID string `json:"trace_id,omitempty"`

	LeavesScanned int `json:"leaves_scanned,omitempty"`
	LeavesDecayed int `json:"leaves_decayed,omitempty"`
	// LeavesDecoded counts the sealed leaves whose summary was decoded
	// from the encoding the leaf keeps in memory, and LeavesCached those a
	// shard exploration (Engine.ExploreParts) took from the result cache or
	// a concurrent exploration built; LeavesScanned counts only the
	// summaries rebuilt from a leaf's data (and the leaves an exact-row scan
	// read).
	LeavesDecoded int `json:"leaves_decoded,omitempty"`
	LeavesCached  int `json:"leaves_cached,omitempty"`

	ChunksScanned     int `json:"chunks_scanned,omitempty"`
	ChunksPrunedZone  int `json:"chunks_pruned_zone,omitempty"`
	ChunksPrunedBloom int `json:"chunks_pruned_bloom,omitempty"`
	// ChunksPrunedPred counts chunks skipped by per-column integer zone
	// maps proving a pushed-down predicate unsatisfiable; ChunksAggMeta
	// counts chunks a pushed-down aggregate answered from chunk metadata
	// without decoding any column stream.
	ChunksPrunedPred int `json:"chunks_pruned_pred,omitempty"`
	ChunksAggMeta    int `json:"chunks_agg_meta,omitempty"`

	// ColumnsDecoded and ColumnsSkipped count per-chunk column streams a v3
	// columnar scan inflated versus left untouched thanks to projection or
	// aggregate pushdown.
	ColumnsDecoded int `json:"columns_decoded,omitempty"`
	ColumnsSkipped int `json:"columns_skipped,omitempty"`

	// AggPartials counts partial-aggregate groups produced by pushed-down
	// aggregation (per shard on a cluster profile).
	AggPartials int `json:"agg_partials,omitempty"`

	CacheHits   int `json:"cache_hits,omitempty"`
	CacheMisses int `json:"cache_misses,omitempty"`

	InflatedBytes int64 `json:"inflated_bytes,omitempty"`
	DFSReads      int   `json:"dfs_reads,omitempty"`

	// MemEpochs and MemRows count the streaming memtable's contribution:
	// unsealed epochs that supplied summary parts, and fresh rows that
	// made it into the exact-row answer before their epoch sealed.
	MemEpochs int `json:"mem_epochs,omitempty"`
	MemRows   int `json:"mem_rows,omitempty"`

	ReadNS   int64 `json:"read_ns,omitempty"`
	DecodeNS int64 `json:"decode_ns,omitempty"`
	LookupNS int64 `json:"lookup_ns,omitempty"`

	// ScanWorkers is the widest fan-out any scan phase in this query ran
	// with and ParallelUnits counts the leaf×table scan units those
	// fan-outs dispatched; a phase run by a pool of one (width 1, or a
	// single unit) reports neither. Workers carries the per-worker wall/decode split. On a cluster
	// profile, ScanWorkers is the max across shards and ParallelUnits the
	// sum; Workers stays per-shard (under Shards) since worker ids only
	// mean something within one engine.
	ScanWorkers   int             `json:"scan_workers,omitempty"`
	ParallelUnits int             `json:"parallel_units,omitempty"`
	Workers       []WorkerProfile `json:"workers,omitempty"`

	// ResultCacheHit marks a query answered wholly from the result cache:
	// the scan counters are zero because nothing was scanned.
	ResultCacheHit bool `json:"result_cache_hit,omitempty"`

	Shards []ShardProfile `json:"shards,omitempty"`
}

// WorkerProfile is one scan worker's share of a parallel query: how many
// units it executed and how long it spent in them overall versus decoding.
type WorkerProfile struct {
	Worker   int   `json:"worker"`
	Units    int   `json:"units"`
	WallNS   int64 `json:"wall_ns"`
	DecodeNS int64 `json:"decode_ns,omitempty"`
}

// ShardProfile is one shard slot's contribution to a cluster query.
type ShardProfile struct {
	Shard     int     `json:"shard"`
	Band      int     `json:"band"`
	LatencyMS float64 `json:"latency_ms"`
	Retries   int     `json:"retries,omitempty"`
	HedgeWin  bool    `json:"hedge_win,omitempty"`
	// FrameBytes is the size of the explore frame the slot answered with:
	// the wire volume behind its latency; Rows is the number of exact rows
	// the coordinator decoded from it.
	FrameBytes int     `json:"frame_bytes,omitempty"`
	Rows       int     `json:"rows,omitempty"`
	Missing    bool    `json:"missing,omitempty"`
	Error      string  `json:"error,omitempty"`
	Profile    Profile `json:"profile"`
}

// Add folds o's scan counters into p. Identity fields (TraceID,
// ResultCacheHit, Shards) are left alone — they describe a whole query,
// not a summable cost.
func (p *Profile) Add(o Profile) {
	if p == nil {
		return
	}
	p.LeavesScanned += o.LeavesScanned
	p.LeavesDecayed += o.LeavesDecayed
	p.LeavesDecoded += o.LeavesDecoded
	p.LeavesCached += o.LeavesCached
	p.ChunksScanned += o.ChunksScanned
	p.ChunksPrunedZone += o.ChunksPrunedZone
	p.ChunksPrunedBloom += o.ChunksPrunedBloom
	p.ChunksPrunedPred += o.ChunksPrunedPred
	p.ChunksAggMeta += o.ChunksAggMeta
	p.ColumnsDecoded += o.ColumnsDecoded
	p.ColumnsSkipped += o.ColumnsSkipped
	p.AggPartials += o.AggPartials
	p.CacheHits += o.CacheHits
	p.CacheMisses += o.CacheMisses
	p.InflatedBytes += o.InflatedBytes
	p.DFSReads += o.DFSReads
	p.MemEpochs += o.MemEpochs
	p.MemRows += o.MemRows
	p.ReadNS += o.ReadNS
	p.DecodeNS += o.DecodeNS
	p.LookupNS += o.LookupNS
	if o.ScanWorkers > p.ScanWorkers {
		p.ScanWorkers = o.ScanWorkers
	}
	p.ParallelUnits += o.ParallelUnits
}

type profileKey struct{}

// ContextWithProfile arranges for scans under the returned context to
// accrue into a Profile, and returns it. A context already carrying a
// profile is returned unchanged, so nested calls share one accumulator.
func ContextWithProfile(ctx context.Context) (context.Context, *Profile) {
	if p := ProfileFromContext(ctx); p != nil {
		return ctx, p
	}
	p := &Profile{}
	return context.WithValue(ctx, profileKey{}, p), p
}

// ProfileFromContext returns the profile accumulator carried by ctx, or
// nil when the query is unprofiled.
func ProfileFromContext(ctx context.Context) *Profile {
	p, _ := ctx.Value(profileKey{}).(*Profile)
	return p
}
