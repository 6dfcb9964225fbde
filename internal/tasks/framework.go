// Package tasks implements the paper's eight telco-specific evaluation
// workloads (§VII-E) — T1 equality, T2 range, T3 aggregate, T4 self-join,
// T5 privacy sanitization, T6 multivariate statistics, T7 k-means
// clustering, T8 linear regression — uniformly over the three compared
// frameworks (RAW, SHAHED, SPATE), so that Fig. 11 and Fig. 12 response
// times and the storage totals of §VIII-C come from the same code paths.
package tasks

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spate/internal/core"
	"spate/internal/geo"
	"spate/internal/raw"
	"spate/internal/scanspec"
	"spate/internal/shahed"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/telco"
)

// IngestStats reports one snapshot ingestion uniformly across frameworks.
type IngestStats struct {
	Epoch telco.Epoch
	Rows  int
	Total time.Duration
}

// Framework is the uniform surface the tasks run against.
type Framework interface {
	// Name returns "RAW", "SHAHED" or "SPATE".
	Name() string
	// Ingest stores one arriving snapshot.
	Ingest(*snapshot.Snapshot) (IngestStats, error)
	// Finish seals any open index periods after the trace ends.
	Finish()
	// Scan streams the window's records per table. Implementations honor
	// ctx where their storage layer supports it (SPATE stops between
	// snapshot decompressions; RAW and SHAHED scans are not interruptible
	// mid-table).
	Scan(ctx context.Context, w telco.TimeRange, tables []string, fn func(string, *telco.Table) error) error
	// Space returns (data bytes, index bytes), logical (pre-replication).
	Space() (data, index int64)
}

// SpecScanner is the optional Framework capability for column-projected,
// predicate-filtered scans: the storage layer decodes only the spec's
// referenced column streams and pre-applies its conjuncts (advisory — the
// SQL engine still re-evaluates the full WHERE clause). The tables fn
// receives declare their own layout: each one's Schema is either the
// stored table's schema or a narrow telco.Schema.Project of it holding at
// least the spec's referenced columns, the same for every table of one
// name within a scan. Frameworks without the capability fall back to
// full-row scans.
type SpecScanner interface {
	ScanSpec(ctx context.Context, w telco.TimeRange, tables []string, spec *scanspec.Spec, fn func(string, *telco.Table) error) error
}

// PartialAggregator is the optional Framework capability for aggregate
// pushdown: the storage layer folds the spec's aggregates chunk-side
// (authoritative — window, RequireTS and predicates applied exactly) and
// returns merged partials instead of rows.
type PartialAggregator interface {
	AggregatePartials(ctx context.Context, w telco.TimeRange, table string, spec *scanspec.Spec) ([]scanspec.Partial, error)
}

// Catalog adapts a framework to SPATE-SQL: CDR and NMS tables are scanned
// through the framework, honoring the executor's timestamp pushdown. When
// the framework supports columnar pushdown (SPATE, SPATE-CLUSTER), the
// returned providers additionally implement sqlengine.Aggregator and route
// column/predicate specs into the storage layer.
func Catalog(f Framework) sqlengine.Catalog {
	return fwCatalog{f}
}

type fwCatalog struct{ f Framework }

// ErrScan marks a statement that failed under its storage scan — a read
// that failed, a scatter that lost a shard, a canceled request — as
// opposed to one that does not parse, bind or evaluate: every error a
// Catalog provider's framework returns wraps it.
var ErrScan = errors.New("tasks: scan")

func scanErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrScan, err)
}

func (c fwCatalog) Table(name string) (sqlengine.Provider, error) {
	schema := telco.SchemaByName(name)
	if schema == nil {
		return nil, &unknownTableError{name}
	}
	p := fwProvider{f: c.f, name: name, schema: schema}
	if agg, ok := c.f.(PartialAggregator); ok {
		return aggProvider{fwProvider: p, agg: agg}, nil
	}
	return p, nil
}

// WithProfile implements sqlengine.ExplainProfiler: scans under the
// returned context accrue into a core.Profile (the SPATE engine and the
// cluster coordinator both honor it; RAW/SHAHED scans leave it zero), and
// the render function reports it as EXPLAIN ANALYZE lines.
func (c fwCatalog) WithProfile(ctx context.Context) (context.Context, func() []string) {
	ctx, prof := core.ContextWithProfile(ctx)
	return ctx, func() []string { return renderProfile(prof) }
}

// renderProfile renders a query profile as human-readable report lines in
// a stable order (the EXPLAIN ANALYZE tail).
func renderProfile(p *core.Profile) []string {
	if p == nil {
		return nil
	}
	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	if p.ResultCacheHit {
		add("result cache: hit")
	}
	add("leaves: %d scanned, %d decayed, %d cached, %d decoded",
		p.LeavesScanned, p.LeavesDecayed, p.LeavesCached, p.LeavesDecoded)
	add("chunks: %d scanned, %d pruned (zone map), %d pruned (bloom)",
		p.ChunksScanned, p.ChunksPrunedZone, p.ChunksPrunedBloom)
	if p.ChunksPrunedPred+p.ChunksAggMeta > 0 {
		add("pushdown: %d chunks pruned (predicate), %d answered from zone meta",
			p.ChunksPrunedPred, p.ChunksAggMeta)
	}
	if p.ColumnsDecoded+p.ColumnsSkipped > 0 {
		add("columns: %d decoded, %d skipped", p.ColumnsDecoded, p.ColumnsSkipped)
	}
	if p.AggPartials > 0 {
		add("aggregate: %d partial rows", p.AggPartials)
	}
	add("chunk cache: %d hits, %d misses", p.CacheHits, p.CacheMisses)
	add("dfs: %d ranged reads, %d bytes inflated", p.DFSReads, p.InflatedBytes)
	if p.ReadNS+p.DecodeNS+p.LookupNS > 0 {
		add("io time: read %.3f ms, decode %.3f ms, cache lookup %.3f ms",
			float64(p.ReadNS)/1e6, float64(p.DecodeNS)/1e6, float64(p.LookupNS)/1e6)
	}
	if p.TraceID != "" {
		add("trace: %s", p.TraceID)
	}
	for _, s := range p.Shards {
		if s.Missing {
			add("shard %d band %d: MISSING after %d retries (%.1f ms): %s",
				s.Shard, s.Band, s.Retries, s.LatencyMS, s.Error)
			continue
		}
		extra := ""
		if s.HedgeWin {
			extra = ", hedge win"
		}
		if s.Retries > 0 {
			extra += fmt.Sprintf(", %d retries", s.Retries)
		}
		if s.Profile.AggPartials > 0 {
			extra += fmt.Sprintf(", %d partial rows", s.Profile.AggPartials)
		}
		add("shard %d band %d: %.1f ms, %d leaves scanned, %d cached, %d decoded, %d chunks scanned, %d pruned, %d cache hits, %d bytes, %d rows, %d frame bytes%s",
			s.Shard, s.Band, s.LatencyMS, s.Profile.LeavesScanned, s.Profile.LeavesCached, s.Profile.LeavesDecoded, s.Profile.ChunksScanned,
			s.Profile.ChunksPrunedZone+s.Profile.ChunksPrunedBloom,
			s.Profile.CacheHits, s.Profile.InflatedBytes, s.Rows, s.FrameBytes, extra)
	}
	return lines
}

type unknownTableError struct{ name string }

func (e *unknownTableError) Error() string { return "tasks: unknown table " + e.name }

type fwProvider struct {
	f      Framework
	name   string
	schema *telco.Schema
}

func (p fwProvider) Schema() *telco.Schema { return p.schema }

// Scan implements sqlengine.Provider over the time range of the hint's
// window, whose open sides lie past every stored row. The framework's
// tables pass through as the batches: their Schema is the layout contract —
// the stored table's own schema from a full scan, the spec's narrow
// projection of it from a SpecScanner that decodes only referenced columns.
func (p fwProvider) Scan(ctx context.Context, hint sqlengine.ScanHint, fn func(*telco.Table) error) error {
	w := hint.Window.Range()
	emit := func(_ string, tab *telco.Table) error { return fn(tab) }
	if hint.Spec != nil {
		if ss, ok := p.f.(SpecScanner); ok {
			return scanErr(ss.ScanSpec(ctx, w, []string{p.name}, hint.Spec, emit))
		}
	}
	return scanErr(p.f.Scan(ctx, w, []string{p.name}, emit))
}

// aggProvider is the provider returned for pushdown-capable frameworks: it
// additionally satisfies sqlengine.Aggregator, answering whole aggregate
// queries from storage-side partials.
type aggProvider struct {
	fwProvider
	agg PartialAggregator
}

func (p aggProvider) Aggregate(ctx context.Context, hint sqlengine.ScanHint, spec *scanspec.Spec) ([]scanspec.Partial, error) {
	parts, err := p.agg.AggregatePartials(ctx, hint.Window.Range(), p.name, spec)
	return parts, scanErr(err)
}

// --- SPATE adapter ---

// Spate wraps a core.Engine as a Framework.
type Spate struct{ E *core.Engine }

// Name implements Framework.
func (Spate) Name() string { return "SPATE" }

// Ingest implements Framework.
func (s Spate) Ingest(sn *snapshot.Snapshot) (IngestStats, error) {
	rep, err := s.E.Ingest(sn)
	return IngestStats{Epoch: sn.Epoch, Rows: rep.Rows, Total: rep.Total}, err
}

// Finish implements Framework.
func (s Spate) Finish() { s.E.FinishIngest() }

// Scan implements Framework.
func (s Spate) Scan(ctx context.Context, w telco.TimeRange, tables []string, fn func(string, *telco.Table) error) error {
	return s.E.ScanTablesContext(ctx, w, tables, fn)
}

// ScanSpec implements SpecScanner: only the spec's referenced columns are
// materialized (v3 leaves decode just those streams), rows come out narrow
// and pre-filtered on its predicates.
func (s Spate) ScanSpec(ctx context.Context, w telco.TimeRange, tables []string, spec *scanspec.Spec, fn func(string, *telco.Table) error) error {
	return s.E.ScanTablesSpec(ctx, w, geo.Rect{}, tables, spec, fn)
}

// AggregatePartials implements PartialAggregator: simple aggregates fold
// chunk-side, answering zone-decidable chunks without decoding any column.
func (s Spate) AggregatePartials(ctx context.Context, w telco.TimeRange, table string, spec *scanspec.Spec) ([]scanspec.Partial, error) {
	return s.E.AggregatePartials(ctx, w, table, spec)
}

// Space implements Framework.
func (s Spate) Space() (int64, int64) {
	sp := s.E.Space()
	return sp.CompBytes, sp.SummaryBytes
}

// --- SHAHED adapter ---

// Shahed wraps a shahed.Store as a Framework.
type Shahed struct{ S *shahed.Store }

// Name implements Framework.
func (Shahed) Name() string { return "SHAHED" }

// Ingest implements Framework.
func (s Shahed) Ingest(sn *snapshot.Snapshot) (IngestStats, error) {
	rep, err := s.S.Ingest(sn)
	return IngestStats{Epoch: sn.Epoch, Rows: rep.Rows, Total: rep.Total}, err
}

// Finish implements Framework.
func (s Shahed) Finish() { s.S.FinishIngest() }

// Scan implements Framework. The SHAHED store has no context plumbing;
// cancellation is checked once up front.
func (s Shahed) Scan(ctx context.Context, w telco.TimeRange, tables []string, fn func(string, *telco.Table) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.S.Scan(w, tables, fn)
}

// Space implements Framework.
func (s Shahed) Space() (int64, int64) {
	return s.S.Space()
}

// --- RAW adapter ---

// Raw wraps a raw.Store as a Framework.
type Raw struct{ S *raw.Store }

// Name implements Framework.
func (Raw) Name() string { return "RAW" }

// Ingest implements Framework.
func (r Raw) Ingest(sn *snapshot.Snapshot) (IngestStats, error) {
	rep, err := r.S.Ingest(sn)
	return IngestStats{Epoch: sn.Epoch, Rows: rep.Rows, Total: rep.Total}, err
}

// Finish implements Framework.
func (Raw) Finish() {}

// Scan implements Framework. The RAW store has no context plumbing;
// cancellation is checked once up front.
func (r Raw) Scan(ctx context.Context, w telco.TimeRange, tables []string, fn func(string, *telco.Table) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.S.Scan(w, tables, fn)
}

// Space implements Framework.
func (r Raw) Space() (int64, int64) {
	return r.S.Space(), 0
}
