package tasks

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"spate/internal/cluster"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/telco"
)

// spateWorld builds one SPATE engine over a short generated trace and
// returns it with the snapshots, so a cluster can ingest identical input.
func spateWorld(t *testing.T, epochs int) (*core.Engine, *gen.Generator, []*snapshot.Snapshot) {
	t.Helper()
	cfg := gen.DefaultConfig(0.003)
	cfg.Antennas = 20
	cfg.Users = 150
	cfg.CDRPerEpoch = 60
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(16)})
	if err != nil {
		t.Fatal(err)
	}
	e0 := telco.EpochOf(cfg.Start)
	snaps := make([]*snapshot.Snapshot, 0, epochs)
	for i := 0; i < epochs; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, sn)
	}
	eng.FinishIngest()
	return eng, g, snaps
}

// TestExplainAnalyzeSpateProfile runs EXPLAIN ANALYZE through the SPATE
// framework catalog: the report must carry the storage profile lines the
// engine accrued — leaves, chunks, cache, DFS.
func TestExplainAnalyzeSpateProfile(t *testing.T) {
	eng, _, _ := spateWorld(t, 4)
	sql := sqlengine.NewEngine(Catalog(Spate{E: eng}))
	start := telco.EpochOf(gen.DefaultConfig(0.003).Start).Start()
	q := `EXPLAIN ANALYZE SELECT COUNT(*) FROM CDR WHERE ts >= '` +
		start.Format("200601021504") + `' AND ts < '` +
		start.Add(time.Hour).Format("200601021504") + `'`
	rs, err := sql.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rs.Rows {
		got = append(got, r[0].Format())
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"SCAN CDR [ts pushdown", "rows: 1", "leaves: ", "chunks: ", "chunk cache: ", "dfs: "} {
		if !strings.Contains(joined, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, joined)
		}
	}
	// The storage numbers must be real: at least one leaf scanned.
	var sawWork bool
	for _, ln := range got {
		if strings.HasPrefix(ln, "leaves: ") && !strings.HasPrefix(ln, "leaves: 0 ") {
			sawWork = true
		}
	}
	if !sawWork {
		t.Errorf("profile reports no leaf scans:\n%s", joined)
	}
}

// TestSQLOverCluster runs the same query through a single engine and a
// 2-shard cluster catalog: row answers must agree, and EXPLAIN ANALYZE over
// the cluster must carry per-shard profile lines.
func TestSQLOverCluster(t *testing.T) {
	eng, g, snaps := spateWorld(t, 2*telco.EpochsPerDay)
	lc, err := cluster.StartLocal(
		cluster.Config{Shards: 2, Obs: obs.NewRegistry(), Tracer: obs.NewTracer(16)},
		g.CellTable(),
		cluster.LocalOptions{Dir: t.TempDir(), Engine: core.Options{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(64)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	ctx := context.Background()
	for _, sn := range snaps {
		if err := lc.Coordinator.Ingest(ctx, sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Coordinator.FinishIngest(ctx); err != nil {
		t.Fatal(err)
	}

	q := `SELECT COUNT(*) FROM CDR`
	single, err := sqlengine.NewEngine(Catalog(Spate{E: eng})).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	csql := sqlengine.NewEngine(Catalog(Cluster{C: lc.Coordinator}))
	clustered, err := csql.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sv := single.Rows[0][0].Int64()
	cv := clustered.Rows[0][0].Int64()
	if sv == 0 || sv != cv {
		t.Fatalf("COUNT over cluster = %d, single engine = %d", cv, sv)
	}

	rs, err := csql.Query(`EXPLAIN ANALYZE ` + q)
	if err != nil {
		t.Fatal(err)
	}
	var joined strings.Builder
	for _, r := range rs.Rows {
		joined.WriteString(r[0].Format())
		joined.WriteString("\n")
	}
	out := joined.String()
	if !strings.Contains(out, "shard 0 band 0: ") || !strings.Contains(out, "shard 1 band 0: ") {
		t.Errorf("cluster EXPLAIN ANALYZE missing per-shard lines:\n%s", out)
	}
}

// scanRows runs a Framework scan and renders each table's rows value by
// value, sorted: two scans agree when they hand out the same multisets.
func scanRows(ctx context.Context, f Framework, w telco.TimeRange) (map[string][]string, error) {
	out := map[string][]string{}
	err := f.Scan(ctx, w, nil, func(name string, tab *telco.Table) error {
		for _, r := range tab.Rows {
			var b strings.Builder
			for _, v := range r {
				fmt.Fprintf(&b, "%d:%s|", v.Kind(), v.Format())
			}
			out[name] = append(out[name], b.String())
		}
		return nil
	})
	for _, rows := range out {
		sort.Strings(rows)
	}
	return out, err
}

// TestClusterScanReadsRowsOnly: a Framework scan over a cluster reads rows
// and nothing else — every shard's span subtree holds one row_fetch and no
// explore_parts — and hands out the engine's rows; over a cluster with no
// data it hands out no rows, as an engine with no data does.
func TestClusterScanReadsRowsOnly(t *testing.T) {
	eng, g, snaps := spateWorld(t, 2*telco.EpochsPerDay)
	coordTracer := obs.NewTracer(16)
	start := func() *cluster.Local {
		lc, err := cluster.StartLocal(
			cluster.Config{Shards: 2, Obs: obs.NewRegistry(), Tracer: coordTracer},
			g.CellTable(),
			cluster.LocalOptions{Dir: t.TempDir(), Engine: core.Options{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(64)}},
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lc.Close() })
		return lc
	}
	lc := start()
	ctx := context.Background()
	for _, sn := range snaps {
		if err := lc.Coordinator.Ingest(ctx, sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Coordinator.FinishIngest(ctx); err != nil {
		t.Fatal(err)
	}

	// Across the day boundary, so both shards answer.
	from := snaps[0].Epoch.Start().Add(20 * time.Hour)
	w := telco.NewTimeRange(from, from.Add(8*time.Hour))
	tctx, root := coordTracer.StartSpan(ctx, "scan")
	got, err := scanRows(tctx, Cluster{C: lc.Coordinator}, w)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	want, err := scanRows(ctx, Spate{E: eng}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(want["CDR"]) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster scan differs from the engine's: %d vs %d CDR rows", len(got["CDR"]), len(want["CDR"]))
	}
	var shards int
	var walk func(j obs.SpanJSON)
	walk = func(j obs.SpanJSON) {
		if j.Name == "rpc_explore" {
			shards++
			counts := map[string]int{}
			var count func(obs.SpanJSON)
			count = func(j obs.SpanJSON) {
				counts[j.Name]++
				for _, c := range j.Children {
					count(c)
				}
			}
			count(j)
			if counts["row_fetch"] != 1 || counts["explore_parts"] != 0 {
				t.Errorf("shard subtree holds %d row_fetch and %d explore_parts spans, want 1 and 0", counts["row_fetch"], counts["explore_parts"])
			}
		}
		for _, c := range j.Children {
			walk(c)
		}
	}
	walk(root.JSON())
	if shards != 2 {
		t.Fatalf("trace holds %d shard subtrees, want 2", shards)
	}

	// No data anywhere: no rows and no error, from either.
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{DataNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewNoop()})
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantErr := scanRows(ctx, Spate{E: empty}, w)
	gotRows, gotErr := scanRows(ctx, Cluster{C: start().Coordinator}, w)
	if gotErr != nil || wantErr != nil || !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("empty cluster scan = %v, %v; empty engine scan = %v, %v", gotRows, gotErr, wantRows, wantErr)
	}
}

// TestRenderProfileLeafCache: EXPLAIN ANALYZE tells rebuilt leaves from
// leaves a shard took from its leaf cache and from leaves decoded from their
// kept encoding, in the totals and per shard, and prints the rows decoded
// from each shard's explore frame and its size.
func TestRenderProfileLeafCache(t *testing.T) {
	shard := core.Profile{LeavesScanned: 1, LeavesCached: 4, LeavesDecoded: 2}
	p := core.Profile{Shards: []core.ShardProfile{{Shard: 2, LatencyMS: 1.5, FrameBytes: 2048, Rows: 17, Profile: shard}}}
	p.Add(shard)
	out := strings.Join(renderProfile(&p), "\n")
	for _, want := range []string{"leaves: 1 scanned, 0 decayed, 4 cached, 2 decoded",
		"shard 2 band 0: 1.5 ms, 1 leaves scanned, 4 cached, 2 decoded, ", ", 17 rows, 2048 frame bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, out)
		}
	}
}
