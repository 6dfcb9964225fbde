package tasks

import (
	"context"
	"fmt"
	"sort"
	"time"

	"spate/internal/cluster"
	"spate/internal/core"
	"spate/internal/scanspec"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// Cluster adapts a cluster.Coordinator to the Framework surface, which in
// turn makes the sharded deployment queryable through SPATE-SQL via
// Catalog: scans fan out as exact-row explorations and the shard rows
// merge coordinator-side. A partial answer (failed shards after retries)
// fails the scan rather than silently returning a subset of rows — SQL
// results must be complete or absent.
type Cluster struct{ C *cluster.Coordinator }

// Name implements Framework.
func (Cluster) Name() string { return "SPATE-CLUSTER" }

// Ingest implements Framework, routing the snapshot through the
// coordinator's write-all replication.
func (c Cluster) Ingest(sn *snapshot.Snapshot) (IngestStats, error) {
	t0 := time.Now()
	err := c.C.Ingest(context.Background(), sn)
	rows := 0
	for _, name := range sn.TableNames() {
		rows += sn.Table(name).Len()
	}
	return IngestStats{Epoch: sn.Epoch, Rows: rows, Total: time.Since(t0)}, err
}

// Finish implements Framework.
func (c Cluster) Finish() { _ = c.C.FinishIngest(context.Background()) }

// Scan implements Framework: one scatter-gather exact-row exploration per
// window, streamed to fn table by table in name order.
func (c Cluster) Scan(ctx context.Context, w telco.TimeRange, tables []string, fn func(string, *telco.Table) error) error {
	res, err := c.C.Explore(ctx, core.Query{Window: w, Tables: tables, ExactRows: true})
	if err != nil {
		return err
	}
	if res.Partial {
		return fmt.Errorf("tasks: cluster scan degraded: %d/%d shards failed (missing %d ranges): %w",
			res.ShardsFailed, res.ShardsQueried, len(res.Missing), cluster.ErrDegraded)
	}
	return emitSorted(res.Rows, fn)
}

// ScanSpec implements SpecScanner: the spec rides the explore RPC, shards
// pre-filter rows on its predicates and decode only referenced columns,
// and the merged tables — in the narrow layout a local ScanTablesSpec
// hands out, as the RPC ships them — stream to fn in name order. The row-only
// scatter skips the summary parts and merge Scan pays for. Like Scan, any
// shard failing all retries fails the call.
func (c Cluster) ScanSpec(ctx context.Context, w telco.TimeRange, tables []string, spec *scanspec.Spec, fn func(string, *telco.Table) error) error {
	rows, err := c.C.ScanRows(ctx, w, tables, spec)
	if err != nil {
		return err
	}
	return emitSorted(rows, fn)
}

// emitSorted hands the gathered non-empty tables to fn in name order.
func emitSorted(rows map[string]*telco.Table, fn func(string, *telco.Table) error) error {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if rows[name].Len() == 0 {
			continue
		}
		if err := fn(name, rows[name]); err != nil {
			return err
		}
	}
	return nil
}

// AggregatePartials implements PartialAggregator: shards fold the spec's
// aggregates locally and ship partials, which the coordinator merges
// key-wise — the sharded answer matches a single engine bit for bit.
func (c Cluster) AggregatePartials(ctx context.Context, w telco.TimeRange, table string, spec *scanspec.Spec) ([]scanspec.Partial, error) {
	return c.C.AggregatePartials(ctx, w, table, spec)
}

// Space implements Framework. Shard nodes own their storage accounting;
// the coordinator has no aggregate view, so the cluster reports zeros.
func (Cluster) Space() (int64, int64) { return 0, 0 }
