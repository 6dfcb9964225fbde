// Package cluster runs N SPATE engine shards behind a coordinator,
// turning the single-process engine into a horizontally sharded service —
// the multi-node deployment shape of the paper's HDFS/Spark substrate,
// rebuilt stdlib-only.
//
// The snapshot space is partitioned by time: contiguous blocks of epochs
// (default one day, so shard-local day summaries stay bit-identical to a
// monolithic engine's) are assigned round-robin to shards, optionally
// sub-split spatially into vertical bands of the cell plane. Each shard is
// served by R replica nodes; every node is a plain core.Engine behind a
// small HTTP RPC surface (/rpc/ingest, /rpc/explore, /rpc/health,
// /rpc/finish): JSON envelopes, except the binary frame /rpc/explore
// answers with (rpc.go).
//
// The coordinator keeps the distribution layer deliberately thin (the
// Spark-vs-Unicage lesson of arXiv:2212.13647): predicates are pushed to
// shards — a shard only sees queries whose window overlaps blocks it owns
// and whose box intersects its band — and only mergeable highlight
// summaries travel back (the interactive-latency recipe of
// arXiv:1709.08001). Exploration fans out scatter-gather with per-shard
// context deadlines, bounded retries with exponential backoff, and hedged
// reads against replica shards. When a shard misses its deadline after all
// retries, the merged Result degrades gracefully: Partial is set and the
// shard's owned time-ranges inside the window are enumerated in Missing
// instead of failing the whole query.
//
// Because shards return their summary *parts* (day summaries, edge leaves)
// rather than a pre-merged aggregate, the coordinator can fold every part
// in one flat chronological Merge — the exact association order a single
// engine uses — so a scatter-gathered answer reproduces the monolithic
// answer bit for bit, not merely within float tolerance.
package cluster

import (
	"time"

	"spate/internal/core"
	"spate/internal/obs"
	"spate/internal/telco"
)

// Config parameterizes a cluster topology and its coordinator policies.
// The zero value selects 4 time shards, no replication, day-sized blocks
// and no spatial sub-split.
type Config struct {
	// Shards is the number of time shards N (default 4).
	Shards int
	// Replicas is the number of replica nodes per shard R (default 1).
	// Ingest writes to every replica (write-all); exploration reads from
	// any (read-one), hedging across them.
	Replicas int
	// BlockEpochs is the number of contiguous epochs per shard block
	// (default 48 = one day). Day-aligned blocks keep shard-local day
	// summaries identical to a monolithic engine's, which is what makes
	// scatter-gathered aggregates bit-exact.
	BlockEpochs int
	// SpatialSplit sub-splits each time shard into this many vertical
	// bands of the cell plane (default 1 = no spatial split). Box queries
	// only fan out to bands the box intersects.
	SpatialSplit int
	// ExploreTimeout is the per-attempt deadline of one shard exploration
	// RPC (default 2s).
	ExploreTimeout time.Duration
	// IngestTimeout is the per-attempt deadline of one replica ingest RPC
	// (default 30s).
	IngestTimeout time.Duration
	// HedgeDelay is how long the coordinator waits on one replica before
	// hedging the same read to the next (default ExploreTimeout/10).
	// Meaningless with Replicas == 1.
	HedgeDelay time.Duration
	// Retries is the number of additional attempts after a failed shard
	// call (default 2; negative means none). Each attempt re-dials the
	// replica set.
	Retries int
	// RetryBackoff is the base backoff before the first retry, doubling
	// per attempt (default 25ms).
	RetryBackoff time.Duration
	// Theta is the coordinator's highlight-extraction threshold over the
	// merged window summary (default core.DefaultTheta).
	Theta float64
	// Obs selects the metrics registry coordinator-side series report
	// into (default obs.Default).
	Obs *obs.Registry
	// Tracer records coordinator-side request traces (default
	// obs.DefaultTracer; nil when Obs is the noop registry). Shard-side
	// subtrees returned on explore RPCs are stitched under it.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.BlockEpochs <= 0 {
		c.BlockEpochs = telco.EpochsPerDay
	}
	if c.SpatialSplit <= 0 {
		c.SpatialSplit = 1
	}
	if c.ExploreTimeout <= 0 {
		c.ExploreTimeout = 2 * time.Second
	}
	if c.IngestTimeout <= 0 {
		c.IngestTimeout = 30 * time.Second
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = c.ExploreTimeout / 10
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Theta <= 0 {
		c.Theta = core.DefaultTheta
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	if c.Obs.Noop() {
		c.Tracer = nil
	} else if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer
	}
	return c
}
