// Package spate is the public API of SPATE, a spatio-temporal framework
// for efficient exploration of telco big data with lossless compression
// and lossy decaying, reproducing Costa et al., "Efficient Exploration of
// Telco Big Data with Compression and Decaying" (ICDE 2017).
//
// SPATE ingests network snapshots arriving every 30 minutes, compresses
// them onto a replicated file system, maintains a multi-resolution
// temporal index (epoch → day → month → year) with materialized highlight
// summaries, progressively decays aged data under an operator-chosen
// policy, and answers exploration queries Q(a, b, w) — attributes a,
// bounding box b, time window w — in time independent of |w|.
//
// Quick start:
//
//	fs, _ := spate.NewCluster(dir, spate.ClusterConfig{})
//	g := spate.NewGenerator(spate.GeneratorConfig(0.01))
//	eng, _ := spate.Open(fs, g.CellTable(), spate.Options{})
//	for e := first; e < last; e++ {
//		s := spate.NewSnapshot(e)
//		s.Add(g.CDRTable(e))
//		s.Add(g.NMSTable(e))
//		eng.Ingest(s)
//	}
//	res, _ := eng.Explore(spate.Query{Window: w, Box: b})
package spate

import (
	"io"

	"spate/internal/cluster"
	"spate/internal/compress"
	"spate/internal/compute"
	"spate/internal/compute/ml"
	"spate/internal/core"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/obs"
	"spate/internal/privacy"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/tasks"
	"spate/internal/telco"
)

// Engine is a SPATE instance. See core.Engine.
type Engine = core.Engine

// Options configures an Engine.
type Options = core.Options

// Query is a data exploration request Q(a, b, w).
type Query = core.Query

// Result is an exploration answer.
type Result = core.Result

// IngestReport describes one snapshot ingestion.
type IngestReport = core.IngestReport

// Snapshot is one epoch's batch of arriving telco tables.
type Snapshot = snapshot.Snapshot

// Epoch identifies a 30-minute ingestion cycle.
type Epoch = telco.Epoch

// TimeRange is a half-open time interval.
type TimeRange = telco.TimeRange

// Table is a batch of telco records under a schema.
type Table = telco.Table

// Record is one telco row.
type Record = telco.Record

// Rect is a planar bounding box in km.
type Rect = geo.Rect

// Point is a planar location in km.
type Point = geo.Point

// AttrRef names a table attribute for highlight selection.
type AttrRef = highlights.AttrRef

// Highlight is an interesting event summary.
type Highlight = highlights.Highlight

// Summary is a mergeable aggregate cube.
type Summary = highlights.Summary

// DecayPolicy sets retention horizons per index resolution.
type DecayPolicy = decay.Policy

// Level is a temporal index resolution.
type Level = index.Level

// Cluster is the replicated file system SPATE stores data on.
type Cluster = dfs.Cluster

// ClusterConfig parameterizes a Cluster.
type ClusterConfig = dfs.Config

// Generator synthesizes paper-shaped telco traces.
type Generator = gen.Generator

// Codec is a lossless block compressor.
type Codec = compress.Codec

// Re-exported constructors and helpers.
var (
	// Open creates an Engine over a cluster with a static cell inventory.
	Open = core.Open
	// NewCluster creates a replicated file system rooted at a directory.
	NewCluster = dfs.NewCluster
	// NewSnapshot creates an empty snapshot for an epoch.
	NewSnapshot = snapshot.New
	// NewGenerator builds a synthetic trace generator.
	NewGenerator = gen.New
	// GeneratorConfig returns the paper-shaped generator config at a scale.
	GeneratorConfig = gen.DefaultConfig
	// EpochOf returns the epoch containing a time instant.
	EpochOf = telco.EpochOf
	// NewTimeRange builds a normalized time range.
	NewTimeRange = telco.NewTimeRange
	// NewRect builds a normalized rectangle.
	NewRect = geo.NewRect
)

// Index levels (temporal resolutions).
const (
	LevelRoot  = index.LevelRoot
	LevelYear  = index.LevelYear
	LevelMonth = index.LevelMonth
	LevelDay   = index.LevelDay
	LevelEpoch = index.LevelEpoch
)

// EpochDuration is the ingestion cycle length (30 minutes).
const EpochDuration = telco.EpochDuration

// --- multi-node sharding (internal/cluster) ---

// Coordinator fronts a sharded multi-node SPATE deployment: it routes
// ingests to the replica group owning each epoch and scatters exploration
// queries across shards, gathering mergeable summary parts with per-shard
// deadlines, bounded retries and hedged replica reads. Shards that stay
// unreachable degrade the answer (ClusterResult.Partial + Missing) instead
// of failing it.
type Coordinator = cluster.Coordinator

// ShardConfig parameterizes a sharded deployment's topology and the
// coordinator's retry/hedging/deadline policies.
type ShardConfig = cluster.Config

// ShardMap assigns epochs to time shards (block round-robin) and cells to
// spatial bands.
type ShardMap = cluster.ShardMap

// ClusterNode serves one shard engine over the cluster RPC surface
// (/rpc/ingest, /rpc/explore, /rpc/finish, /rpc/health).
type ClusterNode = cluster.Node

// ClusterResult is a scatter-gathered exploration answer, including the
// partial-failure contract.
type ClusterResult = cluster.Result

// LocalCluster is an in-process multi-node cluster (loopback HTTP), for
// tests and the spate-server -cluster mode.
type LocalCluster = cluster.Local

// LocalClusterOptions tunes an in-process cluster.
type LocalClusterOptions = cluster.LocalOptions

// Re-exported cluster constructors.
var (
	// NewCoordinator wires a coordinator over slot-major node URL groups.
	NewCoordinator = cluster.NewCoordinator
	// NewShardMap derives the partitioning function of a shard config.
	NewShardMap = cluster.NewShardMap
	// NewClusterNode wraps an engine with the cluster RPC surface.
	NewClusterNode = cluster.NewNode
	// StartLocalCluster boots a full cluster in-process.
	StartLocalCluster = cluster.StartLocal
)

// --- SPATE-SQL (declarative exploration, paper §VI-B) ---

// SQLEngine executes SELECT statements against a SPATE store.
type SQLEngine = sqlengine.Engine

// SQLResult is a materialized SQL answer.
type SQLResult = sqlengine.ResultSet

// NewSQL returns a SPATE-SQL engine over an ingested store; statements
// scan the compressed representation with timestamp pushdown into the
// temporal index.
func NewSQL(e *Engine) *SQLEngine {
	return sqlengine.NewEngine(tasks.Catalog(tasks.Spate{E: e}))
}

// --- observability (internal/obs) ---

// MetricsRegistry is a set of named counters, gauges and histograms.
// Every SPATE subsystem reports into Obs (the process-wide default) unless
// an engine or cluster is configured with its own registry.
type MetricsRegistry = obs.Registry

// Metric is one metric family in a metrics snapshot.
type Metric = obs.Metric

// Stage is one named step of a request's per-stage timing breakdown
// (IngestReport.Stages, Result.Stages).
type Stage = obs.Stage

// Tracer retains recent request span trees.
type Tracer = obs.Tracer

// Obs is the process-wide metrics registry — scrape it programmatically
// via MetricsSnapshot, over HTTP at GET /metrics (Prometheus text) or
// GET /api/stats (JSON) on a spate-server.
var Obs = obs.Default

// Traces is the process-wide request tracer behind GET /api/trace.
var Traces = obs.DefaultTracer

// MetricsSnapshot returns a point-in-time copy of every metric in Obs.
func MetricsSnapshot() []Metric { return obs.Default.Snapshot() }

// WriteMetrics renders Obs in the Prometheus text exposition format.
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// NewMetricsRegistry returns an empty registry, for embedders that want
// per-engine isolation (Options.Obs / ClusterConfig.Obs).
var NewMetricsRegistry = obs.NewRegistry

// NewNoopMetrics returns a registry that discards every update — it
// disables all instrumentation on the engine or cluster it is given to.
var NewNoopMetrics = obs.NewNoop

// --- decay fungi (paper §V-C) ---

// EvictOldestIndividuals is the paper's data fungus: aged entries decay
// individually, oldest first.
type EvictOldestIndividuals = decay.EvictOldestIndividuals

// EvictGroupedIndividuals decays whole-day groups at once.
type EvictGroupedIndividuals = decay.EvictGroupedIndividuals

// --- privacy-aware data sharing (paper task T5) ---

// PrivacyOptions configures k-anonymization.
type PrivacyOptions = privacy.Options

// PrivacyReport summarizes an anonymization run.
type PrivacyReport = privacy.Report

// Re-exported privacy functions.
var (
	// Anonymize releases a k-anonymized copy of a table.
	Anonymize = privacy.Anonymize
	// VerifyK checks the k-anonymity property of a released table.
	VerifyK = privacy.VerifyK
)

// --- parallel analytics (paper tasks T6-T8) ---

// Pool is a data-parallel worker pool.
type Pool = compute.Pool

// ColStats are the column-wise multivariate statistics of task T6.
type ColStats = ml.ColStats

// KMeansResult is a clustering outcome (task T7).
type KMeansResult = ml.KMeansResult

// LinReg is a fitted linear model (task T8).
type LinReg = ml.LinReg

// Re-exported analytics functions.
var (
	// NewPool creates a worker pool (n <= 0 selects GOMAXPROCS).
	NewPool = compute.NewPool
	// ColStatsOf computes per-column statistics in parallel.
	ColStatsOf = ml.ColStatsOf
	// KMeans clusters points with parallel Lloyd iterations.
	KMeans = ml.KMeans
	// LinearRegression fits ordinary least squares in parallel.
	LinearRegression = ml.LinearRegression
)
