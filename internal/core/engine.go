// Package core implements the SPATE engine — the paper's primary
// contribution (§III–§VI): a telco big-data exploration framework that
// ingests 30-minute snapshots through lossless compression onto a
// replicated file system (storage layer), incrementally maintains a
// multi-resolution spatio-temporal index with materialized highlight
// summaries and progressive decay (indexing layer), and answers data
// exploration queries Q(a, b, w) — attribute selection a, spatial bounding
// box b, temporal window w — with response times independent of the
// queried window (application layer).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"spate/internal/cache"
	"spate/internal/compress"
	"spate/internal/compress/gzipc"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/memtable"
	"spate/internal/obs"
	"spate/internal/segment"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// ErrFinalized is returned by Ingest (and OpenStreamer) on a store whose
// open periods FinishIngest sealed: further ingestion would leave the
// sealed rollups silently stale. Open a new engine over the same cluster
// to re-enter an appendable state. Callers branch on it with errors.Is —
// cluster nodes map it to a distinct RPC status, the streamer refuses to
// open over it.
var ErrFinalized = errors.New("core: store was finalized by FinishIngest; open a new engine to continue")

// Options configures an engine. The zero value selects the paper's
// defaults: gzip compression, the default highlight attributes, per-level
// thresholds, the EvictOldestIndividuals fungus and no decay horizons
// (retain everything).
type Options struct {
	// Codec is the storage-layer compressor (default: gzip). It is fixed
	// for the engine's lifetime.
	Codec compress.Codec
	// Highlights selects summarized attributes.
	Highlights highlights.Config
	// Theta holds per-resolution highlight thresholds θ_i; the paper allows
	// "lower thresholds for higher levels of resolution". Missing levels
	// default to DefaultTheta.
	Theta map[index.Level]float64
	// Fungus chooses the decay strategy (default EvictOldestIndividuals).
	Fungus decay.Fungus
	// Policy sets the decay horizons; the zero policy retains everything.
	Policy decay.Policy
	// ResultCache, when non-nil, replaces the engine's own 64 MiB result
	// cache — the hook a process-wide serving tier uses to pool every
	// engine's results under one byte budget (serving.Namespace binds one
	// namespace of a shared cache to this contract). The cache must honor
	// the decay/epoch invalidation contract: Invalidate drops entries
	// whose served period overlaps a stale range, Clear drops everything
	// on ingest.
	ResultCache ResultCache
	// ChunkSize is the target uncompressed bytes per leaf segment chunk
	// (default segment.DefaultChunkSize); a negative value is refused.
	// Leaves in the pre-segment whole-blob format, which no engine writes
	// any more, stay readable.
	ChunkSize int
	// SegmentVersion selects the leaf segment layout for new writes: 0 or
	// segment.Version (3) writes column-major v3 chunks, segment.RowVersion
	// (2) keeps the row-major layout for equivalence benchmarks. Every
	// version stays readable regardless of this setting.
	SegmentVersion int
	// ScanWorkers is the width of the worker pool a single query runs its
	// leaf×table scan units on (default GOMAXPROCS). It is a width, not a
	// path: 1 is a pool of one, the same pipeline run inline on the calling
	// goroutine, and results are bit-for-bit identical at any width.
	ScanWorkers int
	// Obs selects the metrics registry the engine reports into (default
	// obs.Default). obs.NewNoop() disables all accounting — the baseline
	// the instrumentation-overhead benchmark compares against.
	Obs *obs.Registry
	// Tracer records per-request span trees (default obs.DefaultTracer;
	// forced off when Obs is a noop registry).
	Tracer *obs.Tracer
}

// DefaultTheta is the highlight threshold used when Options.Theta has no
// entry for a level.
const DefaultTheta = 0.05

// chunkCacheBytes bounds the in-memory cache of inflated leaf chunks.
const chunkCacheBytes = 64 << 20

func (o Options) withDefaults() (Options, error) {
	if o.Codec == nil {
		o.Codec = gzipc.Codec{}
	}
	if o.Highlights.Categorical == nil && o.Highlights.Numeric == nil {
		o.Highlights = highlights.DefaultConfig()
	}
	if o.Fungus == nil {
		o.Fungus = decay.EvictOldestIndividuals{}
	}
	switch {
	case o.ChunkSize < 0:
		return o, fmt.Errorf("core: negative chunk size %d", o.ChunkSize)
	case o.ChunkSize == 0:
		o.ChunkSize = segment.DefaultChunkSize
	}
	switch o.SegmentVersion {
	case 0:
		o.SegmentVersion = segment.Version
	case segment.RowVersion, segment.Version:
	default:
		return o, fmt.Errorf("core: unsupported segment version %d", o.SegmentVersion)
	}
	if o.ScanWorkers == 0 {
		o.ScanWorkers = runtime.GOMAXPROCS(0)
	}
	if o.ScanWorkers < 1 {
		o.ScanWorkers = 1
	}
	if o.Obs == nil {
		o.Obs = obs.Default
	}
	if o.Obs.Noop() {
		o.Tracer = nil
	} else if o.Tracer == nil {
		o.Tracer = obs.DefaultTracer
	}
	if err := o.Policy.Validate(); err != nil {
		return o, err
	}
	return o, nil
}

// theta returns the threshold for a level.
func (o Options) theta(l index.Level) float64 {
	if v, ok := o.Theta[l]; ok {
		return v
	}
	return DefaultTheta
}

// Engine is a SPATE instance. It is safe for one concurrent ingester plus
// any number of concurrent queriers.
type Engine struct {
	opts Options
	fs   *dfs.Cluster

	mu    sync.RWMutex
	tree  *index.Tree
	cells *CellInventory // immutable after Open; read without mu

	// decayMu serializes decay and compaction sweeps with each other.
	// Sweeps take e.mu only in short bursts (plan under RLock, batched
	// mutations under Lock) so explorations keep flowing while one runs;
	// two sweeps interleaving with each other, however, could double-apply
	// evictions or swap refs a concurrent sweep just planned against.
	decayMu sync.Mutex

	// finished marks a store whose open periods were sealed; further
	// ingestion is rejected (summaries would be stale otherwise).
	finished bool
	// finishMarked records that the store carries the finish marker
	// (finishMarkPath).
	finishMarked bool

	// memt is the streaming memtable of unsealed rows, attached by
	// OpenStreamer; queries union it with sealed-leaf scans. Nil on a
	// batch-only engine.
	memt *memtable.Memtable

	// cache holds exploration results; resFlight dedupes identical
	// explorations that miss it.
	cache     ResultCache
	resFlight cache.Flight[*Result]

	// chunkCache holds inflated leaf chunks, and each segment leaf's
	// footer, across queries, bounded by chunkCacheBytes; its Do dedupes
	// concurrent inflations of one chunk, across scan workers and across
	// queries.
	chunkCache *cache.LRU[[]byte]

	// batches pools the column batches leaf walks decode into, folders the
	// highlight folds summary rebuilds run: steady-state scans reuse their
	// arrays instead of allocating per leaf.
	batches sync.Pool
	folders sync.Pool

	// met holds the engine's pre-resolved obs series and tracer.
	met *engineMetrics

	// cumulative ingest accounting
	rawBytes  int64
	compBytes int64

	// colStats feeds /api/stats with per-column codec choices (self-locking).
	colStats colStatsBook
}

// Open creates an engine over a DFS cluster with the given static cell
// inventory (the CELL table). The inventory is persisted to the DFS so the
// store is self-describing.
func Open(fs *dfs.Cluster, cellTable *telco.Table, opts Options) (*Engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	opts.Codec = compress.Instrument(opts.Codec, opts.Obs)
	cells, err := NewCellInventory(cellTable)
	if err != nil {
		return nil, err
	}
	chunks := cache.New("spate_chunk_cache", "Inflated leaf chunks", chunkCacheBytes,
		func(b []byte) int64 { return int64(len(b)) }, opts.Obs)
	e := &Engine{
		opts:       opts,
		fs:         fs,
		tree:       index.New(),
		cells:      cells,
		cache:      opts.ResultCache,
		chunkCache: chunks,
		met:        newEngineMetrics(opts.Obs, opts.Tracer),
	}
	if e.cache == nil {
		e.cache = ResultsUnder(NewResultLRU(defaultResultCacheBytes, opts.Obs), "")
	}
	opts.Obs.Gauge("spate_scan_parallel_workers",
		"Configured per-query scan worker fan-out.").Set(float64(opts.ScanWorkers))
	// Persist the inventory (idempotent across engine restarts on the same
	// cluster).
	if !fs.Exists("/spate/meta/CELL") {
		var data []byte
		text := cellTable.Text()
		data = opts.Codec.Compress(data, []byte(text))
		if err := fs.WriteFile("/spate/meta/CELL", data); err != nil {
			return nil, fmt.Errorf("core: persist cell table: %w", err)
		}
	}
	// A cluster that already carries SPATE state recovers its index: leaf
	// metadata rebuilds the temporal tree and persisted summaries reload.
	if err := e.recover(); err != nil {
		return nil, err
	}
	return e, nil
}

// Tree exposes the temporal index for inspection (benchmarks, UI). It is
// not synchronized with ingest — callers that may run concurrently with
// Ingest should use Snapshots / LastEpoch instead.
func (e *Engine) Tree() *index.Tree { return e.tree }

// Snapshots returns the number of epoch leaves currently indexed.
func (e *Engine) Snapshots() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tree.Len()
}

// LastEpoch returns the most recently ingested epoch, and false when the
// store is empty.
func (e *Engine) LastEpoch() (telco.Epoch, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tree.LastEpoch()
}

// FS returns the underlying DFS cluster.
func (e *Engine) FS() *dfs.Cluster { return e.fs }

// Codec returns the engine's storage codec.
func (e *Engine) Codec() compress.Codec { return e.opts.Codec }

// Cells returns the engine's cell inventory.
func (e *Engine) Cells() *CellInventory { return e.cells }

// IngestReport describes one snapshot ingestion — the quantities behind
// the paper's ingestion-time (Fig. 7/9) and space (Fig. 8/10) series.
type IngestReport struct {
	Epoch     telco.Epoch
	Rows      int
	RawBytes  int64
	CompBytes int64
	// CompressTime is the storage layer's share: Prepare plus the DFS
	// writes. IndexTime is the indexing layer's: tree append, seals and the
	// leaf-metadata journal. Total is Prepare plus Commit — the time the
	// snapshot was being worked on, not the time it sat prepared while an
	// earlier one committed.
	CompressTime   time.Duration
	IndexTime      time.Duration
	Total          time.Duration
	CompletedNodes int
	// Stages is the wall-time breakdown (encode, compress, highlight
	// from Prepare; dfs_write, index_insert, seal, persist_meta, decay from
	// Commit) that also feeds the spate_ingest_stage_seconds histograms. The
	// stages never overlap, so they sum to at most Total: encode and
	// compress run in one worker per table, and share the wall time of that
	// fan-out in proportion to the workers' summed figures, which Tables
	// keeps per table.
	Stages []obs.Stage
	// Tables is the per-table share of the encode fan-out, in name order.
	// The times are each worker's own and overlap across tables.
	Tables []TableIngest
}

// TableIngest is one table's part of a snapshot's Prepare.
type TableIngest struct {
	Name      string
	RawBytes  int64
	CompBytes int64
	// Encode is the timestamp sort plus, for row-major leaves, the wire-text
	// render; Compress the segment write (for v3: field render, column
	// packing and the block codec).
	Encode, Compress time.Duration
}

// PreparedSnapshot is a snapshot between Prepare and Commit: every table in
// its on-disk leaf form plus the epoch's highlight summary, with nothing
// written anywhere yet.
type PreparedSnapshot struct {
	snap    *snapshot.Snapshot
	tables  []encodedLeaf // in name order
	summary *highlights.Summary
	rep     IngestReport
	sr      *stageRecorder
	span    *obs.Span
}

// Ingest runs the storage layer (compress + DFS write) and the Incremence
// module for one arriving snapshot, computing highlight summaries for any
// day/month/year that the arrival completes and then running the decay
// fungus. Snapshot tables are re-clustered by record timestamp in place
// before encoding, so stored leaves carry time-ordered rows — the property
// segment chunk zone maps prune by.
func (e *Engine) Ingest(s *snapshot.Snapshot) (IngestReport, error) {
	return e.IngestContext(context.Background(), s)
}

// IngestContext is Ingest with span propagation: when ctx carries a live
// obs span the ingest span nests under it. It is Commit(Prepare(s)).
func (e *Engine) IngestContext(ctx context.Context, s *snapshot.Snapshot) (IngestReport, error) {
	p, err := e.Prepare(ctx, s)
	if err != nil {
		return IngestReport{Epoch: s.Epoch, Rows: s.Rows()}, err
	}
	return e.Commit(p)
}

// admit rejects a snapshot the store cannot take: any snapshot once the
// store is finalized, and an epoch at or before the last one indexed.
func (e *Engine) admit(epoch telco.Epoch) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.finished {
		return ErrFinalized
	}
	if last, ok := e.tree.LastEpoch(); ok && epoch <= last {
		return fmt.Errorf("core: epoch %v arrives out of order (last %v)", epoch, last)
	}
	return nil
}

// Prepare does all of an ingestion that needs no place in the order of
// epochs: it sorts each table by timestamp (in place), renders and
// compresses the tables into their leaf bytes — one worker per table, wire
// rendering and chunk compression being independent across tables — and
// folds the epoch's highlight summary. It writes nothing and changes no
// engine state, so a caller may prepare epoch N+1 while epoch N
// commits; prepared snapshots must then be committed in epoch order, and
// the snapshot must not be modified in between. A snapshot the store
// already cannot take is rejected before any work is done.
func (e *Engine) Prepare(ctx context.Context, s *snapshot.Snapshot) (*PreparedSnapshot, error) {
	start := time.Now()
	p := &PreparedSnapshot{
		snap: s,
		rep:  IngestReport{Epoch: s.Epoch, Rows: s.Rows()},
		sr:   newStageRecorder(),
	}
	if e.met.tracer != nil {
		_, p.span = e.met.tracer.StartSpan(ctx, "ingest")
	}
	err := e.admit(s.Epoch)
	if err == nil {
		err = e.prepareTables(p)
	}
	p.rep.Total = time.Since(start)
	p.rep.CompressTime = p.rep.Total
	if err != nil {
		e.finishIngest(p, err)
		return nil, err
	}
	return p, nil
}

// prepareTables is Prepare's body: the per-table encode fan-out, then the
// highlight fold in name order so summaries stay deterministic.
func (e *Engine) prepareTables(p *PreparedSnapshot) error {
	s := p.snap
	names := s.TableNames()
	p.tables = make([]encodedLeaf, len(names))
	tFan := time.Now()
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			p.tables[i] = e.encodeLeafTable(s, name)
		}(i, name)
	}
	wg.Wait()
	fan := time.Since(tFan).Nanoseconds()
	var encode, comp int64
	for i := range p.tables {
		enc := &p.tables[i]
		encode += enc.encodeNS
		comp += enc.compressNS
	}
	// The workers overlap, so their summed times can exceed the wall clock;
	// the stages get the fan-out's wall time, split as the sums are.
	scale := 1.0
	if sum := encode + comp; sum > fan {
		scale = float64(fan) / float64(sum)
	}
	p.sr.add(StageEncode, int64(float64(encode)*scale))
	p.sr.add(StageCompress, int64(float64(comp)*scale))
	for i := range p.tables {
		enc := &p.tables[i]
		if enc.err != nil {
			return fmt.Errorf("core: encode %s: %w", enc.name, enc.err)
		}
		p.rep.RawBytes += enc.raw
		p.rep.CompBytes += int64(len(enc.data))
		p.rep.Tables = append(p.rep.Tables, TableIngest{
			Name: enc.name, RawBytes: enc.raw, CompBytes: int64(len(enc.data)),
			Encode:   time.Duration(enc.encodeNS),
			Compress: time.Duration(enc.compressNS),
		})
	}
	t0 := time.Now()
	p.summary = highlights.NewSummary(telco.TimeRange{From: s.Epoch.Start(), To: s.Epoch.End()})
	for _, name := range names {
		p.summary.AddTable(e.opts.Highlights, s.Table(name))
	}
	p.sr.add(StageHighlight, time.Since(t0).Nanoseconds())
	return nil
}

// finishIngest closes an ingestion's books, ended by err or complete: the
// stages go to the histograms and the span, the span ends, the fleet
// counters advance. It returns the finished report.
func (e *Engine) finishIngest(p *PreparedSnapshot, err error) IngestReport {
	p.rep.Stages = p.sr.flush(e.met.ingestStage, p.span)
	p.span.End()
	if err != nil {
		e.met.ingestErrors.Inc()
		return p.rep
	}
	e.met.ingestSec.Observe(p.rep.Total.Seconds())
	e.met.ingestSnaps.Inc()
	e.met.ingestRows.Add(int64(p.rep.Rows))
	e.met.ingestRawB.Add(p.rep.RawBytes)
	e.met.ingestCompB.Add(p.rep.CompBytes)
	return p.rep
}

// errAbandoned is what an abandoned snapshot's ingest ended with.
var errAbandoned = errors.New("core: prepared snapshot abandoned")

// Abandon gives up a prepared snapshot that will not be committed, because
// the run it belongs to stopped at an earlier error. Nothing was written for
// it; its ingest span ends and it counts among the failed ingests.
func (e *Engine) Abandon(p *PreparedSnapshot) { e.finishIngest(p, errAbandoned) }

// Commit gives a prepared snapshot its place in the store: the replicated
// DFS writes, the Incremence append on the right-most path with the seals
// it completes, the leaf-metadata journal and the decay fungus. Commits
// must arrive in epoch order, one at a time; an epoch at or before the last
// one indexed is rejected before anything is written, so it leaves no
// orphan file behind.
func (e *Engine) Commit(p *PreparedSnapshot) (rep IngestReport, err error) {
	start := time.Now()
	sr := p.sr
	defer func() { // every return below hands back the report as it then stands
		p.rep.Total += time.Since(start)
		rep = e.finishIngest(p, err)
	}()
	s := p.snap
	if err := e.admit(s.Epoch); err != nil {
		return rep, err
	}
	if err := e.unmarkFinished(); err != nil {
		return rep, err
	}

	// Storage layer: the leaf files, in name order.
	refs := make(map[string]string, len(p.tables))
	for i := range p.tables {
		enc := &p.tables[i]
		name := enc.name
		e.colStats.add(name, enc.colNames, enc.colStats)
		path := snapshot.DataPath(s.Epoch, name)
		t0 := time.Now()
		werr := e.fs.WriteFile(path, enc.data)
		sr.add(StageDFSWrite, time.Since(t0).Nanoseconds())
		if werr != nil {
			return rep, fmt.Errorf("core: store %s: %w", name, werr)
		}
		refs[name] = path
	}
	p.rep.CompressTime += time.Since(start)

	// Indexing layer: incremence on the right-most path.
	tIndex := time.Now()
	e.mu.Lock()
	leaf, completed, err := e.tree.Append(s.Epoch, refs, p.rep.CompBytes, p.rep.RawBytes)
	if err != nil {
		e.mu.Unlock()
		return rep, err
	}
	leaf.Summary = p.summary
	// The append extended the periods of the right-most path: a summary
	// one of them still carries, sealed by FinishIngest before a reopen,
	// misses the new leaf.
	for _, n := range e.tree.FinishIngest() {
		n.Summary = nil
	}
	sr.add(StageIndex, time.Since(tIndex).Nanoseconds())
	tSeal := time.Now()
	var sealErr error
	for _, n := range completed {
		if err := e.sealLocked(n); err != nil && sealErr == nil {
			sealErr = err
		}
	}
	sr.add(StageSeal, time.Since(tSeal).Nanoseconds())
	e.rawBytes += p.rep.RawBytes
	e.compBytes += p.rep.CompBytes
	e.cache.Clear()
	e.mu.Unlock()
	if sealErr != nil {
		return rep, sealErr
	}
	tPersist := time.Now()
	if err := e.persistLeafMeta(leafMeta{
		Epoch: s.Epoch, Refs: refs,
		RawBytes: p.rep.RawBytes, CompBytes: p.rep.CompBytes,
	}); err != nil {
		return rep, err
	}
	sr.add(StagePersist, time.Since(tPersist).Nanoseconds())
	p.rep.IndexTime = time.Since(tIndex)
	p.rep.CompletedNodes = len(completed)

	// Decaying: purge aged entries under the configured policy.
	tDecay := time.Now()
	_, err = e.DecayRun(s.Epoch.End(), DecayBudget{})
	sr.add(StageDecay, time.Since(tDecay).Nanoseconds())
	return rep, err
}

// sealLocked computes and stores a completed node's summary by merging its
// children's summaries (days merge epoch leaves; months merge days; years
// merge months) — the highlights rollup of §V-B — and persists the sealed
// summary to the DFS so the index survives restarts. Leaves whose
// ephemeral summary is gone (a recovered open day) decode their kept
// encoding, or are rebuilt from their compressed data when they have none.
func (e *Engine) sealLocked(n *index.Node) error {
	parts := make([]*highlights.Summary, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Summary == nil && c.IsLeaf() && !c.Decayed {
			var s *highlights.Summary
			var err error
			if c.KeptSummary != nil {
				s, err = highlights.DecodeBinary(c.KeptSummary)
			} else {
				s, err = e.buildLeafSummary(c.Period, c.DataRefs, nil)
			}
			if err != nil {
				return fmt.Errorf("core: seal %s %v: %w", n.Level, n.Period.From, err)
			}
			c.Summary = s
		}
		parts = append(parts, c.Summary)
	}
	n.Summary = highlights.Merge(n.Period, parts...)
	if err := e.persistSummary(n); err != nil {
		return err
	}
	// The paper's index keeps highlights at day/month/year nodes only, so
	// once the day is sealed an epoch leaf's summary object goes. Its exact
	// encoding stays in memory (never on the DFS), and a sub-day window
	// decodes it instead of rebuilding it from the compressed data; a
	// decayed leaf keeps nothing and answers from the day's summary.
	if n.Level == index.LevelDay {
		for _, c := range n.Children {
			if c.Summary != nil && !c.Decayed && c.KeptSummary == nil {
				c.KeptSummary, _ = c.Summary.Encode()
			}
			c.Summary = nil
		}
	}
	return nil
}

// FinishIngest seals the still-open right-most path, for use when a trace
// ends mid-day: subsequent queries can then use day/month summaries for
// the final partial periods. The store becomes read-only: further Ingest
// calls fail (their rollups would silently miss the sealed partial
// periods); open a fresh engine over the same cluster to re-enter an
// appendable state.
func (e *Engine) FinishIngest() {
	e.mu.Lock()
	defer e.mu.Unlock()
	sealed := true
	for _, n := range e.tree.FinishIngest() {
		// Best-effort: sealing failures degrade queries to the data path.
		if err := e.sealLocked(n); err != nil {
			sealed = false
		}
	}
	// Only a path whose every seal is persisted may be trusted by a
	// recovery (see recover).
	if sealed {
		e.markFinished()
	}
	e.finished = true
	e.cache.Clear()
}

// attachMemtable wires the streaming memtable into the query path. The
// cache is cleared because cached "no newer data" answers may now be
// wrong the moment rows land.
func (e *Engine) attachMemtable(m *memtable.Memtable) {
	e.mu.Lock()
	e.memt = m
	e.mu.Unlock()
	e.cache.Clear()
}

// memAfterLocked returns the attached memtable and the epoch watermark
// its query contributions start after: buffered epochs at or below the
// tree's last leaf are excluded, because a seal makes the leaf visible
// before dropping the memtable copy — without the filter such an epoch
// would briefly count double. Caller holds e.mu (either mode); the
// watermark and the query plan must be captured under the same lock
// acquisition.
func (e *Engine) memAfterLocked() (*memtable.Memtable, telco.Epoch) {
	if e.memt == nil {
		return nil, 0
	}
	last, ok := e.tree.LastEpoch()
	if !ok {
		last = telco.Epoch(minEpoch)
	}
	return e.memt, last
}

// minEpoch sorts before every real epoch (math.MinInt64).
const minEpoch = -1 << 63

// ClearCache drops the query result cache (benchmarks use this to measure
// uncached response times; normal operation never needs it).
func (e *Engine) ClearCache() { e.cache.Clear() }

// DecayBudget paces one decay sweep. The zero value applies the whole
// plan in default-sized batches.
type DecayBudget struct {
	// BatchSize is how many evictions apply per write-lock acquisition
	// (default 32). Smaller batches yield to concurrent explorations more
	// often at the cost of more lock traffic.
	BatchSize int
}

// DecayRun plans and applies the data fungus at the given instant — the
// ingest path's housekeeping and the lifecycle daemon's sweep. Planning
// happens under the engine read lock; evictions then apply in batches of
// b.BatchSize under short write-lock acquisitions, with the DFS deletes
// deferred outside the lock entirely — a concurrent Explore is never
// blocked for the whole sweep. Cache damage is targeted: deleted leaf files
// drop their inflated chunks from the chunk cache by path prefix, and only
// cached results whose served period intersects a decayed node's period are
// invalidated — a cached query over a disjoint window keeps serving hits
// through decay runs.
//
// A delete that fails leaves an orphaned file behind (the index entry is
// already gone); the first such error is reported after the sweep
// finishes applying.
func (e *Engine) DecayRun(now time.Time, b DecayBudget) (decay.Result, error) {
	e.decayMu.Lock()
	defer e.decayMu.Unlock()
	if b.BatchSize <= 0 {
		b.BatchSize = 32
	}

	// Plan under the read lock: the fungus walks the tree, but nothing
	// mutates.
	e.mu.RLock()
	evs := e.opts.Fungus.Plan(now, e.tree, e.opts.Policy)
	e.mu.RUnlock()
	if len(evs) == 0 {
		return decay.Result{}, nil
	}

	// Apply in bounded batches. The tree only grows between plan and
	// apply (ingest appends on the right-most path; other sweeps are
	// serialized by decayMu), so the planned nodes stay valid.
	var rep decay.Result
	var pending []string // DFS paths to delete once the lock is down
	var delErr error
	structural := false
	for start := 0; start < len(evs); start += b.BatchSize {
		batch := evs[start:min(start+b.BatchSize, len(evs))]
		e.mu.Lock()
		stale := make([]telco.TimeRange, len(batch))
		for i, ev := range batch {
			stale[i] = ev.Node.Period
		}
		res, err := decay.Apply(e.tree, batch, func(path string) error {
			e.dropChunks(path)
			pending = append(pending, path)
			return nil
		})
		rep.LeavesDecayed += res.LeavesDecayed
		rep.NodesPruned += res.NodesPruned
		rep.BytesFreed += res.BytesFreed
		rep.RefsDeleted += res.RefsDeleted
		e.cache.Invalidate(stale)
		e.mu.Unlock()
		if err != nil {
			return rep, fmt.Errorf("core: decay: %w", err)
		}
		if res.NodesPruned > 0 {
			structural = true
		}
		for _, p := range pending {
			if derr := e.fs.Delete(p); derr != nil && delErr == nil {
				delErr = derr
			}
		}
		pending = pending[:0]
	}
	if rep.LeavesDecayed > 0 || rep.NodesPruned > 0 {
		e.met.decayRuns.Inc()
		e.met.decayLeaves.Add(int64(rep.LeavesDecayed))
		e.met.decayPruned.Add(int64(rep.NodesPruned))
		e.met.decayBytes.Add(rep.BytesFreed)
	}
	if structural {
		// Drop leaf metadata of pruned subtrees so a recovery does not
		// resurrect index entries beyond the live tree.
		if err := e.cleanupLeafMeta(); err != nil {
			return rep, err
		}
	}
	if delErr != nil {
		return rep, fmt.Errorf("core: decay delete: %w", delErr)
	}
	return rep, nil
}

// SpaceReport quantifies the paper's first objective O1 = S / (Sc + Si).
type SpaceReport struct {
	RawBytes     int64 // S: bytes before compression (all ingested)
	CompBytes    int64 // Sc: compressed bytes currently held (logical)
	SummaryBytes int64 // Si: index/highlight footprint estimate
	// KeptSummaryBytes is the memory the sealed leaves' kept summary
	// encodings take; they are not persisted, so neither Si nor O1 counts
	// them.
	KeptSummaryBytes int64
	StoredBytes      int64 // physical bytes on the DFS incl. replication
	O1               float64
}

// Space returns current storage accounting.
func (e *Engine) Space() SpaceReport {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := e.tree.Stats()
	u := e.fs.Usage()
	rep := SpaceReport{
		RawBytes:         e.rawBytes,
		CompBytes:        st.DataBytes,
		SummaryBytes:     st.SummaryBytes,
		KeptSummaryBytes: st.KeptBytes,
		StoredBytes:      u.StoredBytes,
	}
	if d := rep.CompBytes + rep.SummaryBytes; d > 0 {
		rep.O1 = float64(rep.RawBytes) / float64(d)
	}
	return rep
}
