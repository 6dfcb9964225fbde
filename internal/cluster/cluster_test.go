package cluster

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// testTrace synthesizes a small deterministic trace. The snapshots share
// their tables, so feeding them to both a reference engine and a cluster
// compares identical inputs.
func testTrace(tb testing.TB, days int) (*gen.Generator, []*snapshot.Snapshot, telco.TimeRange) {
	tb.Helper()
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas = 16
	cfg.Users = 120
	cfg.CDRPerEpoch = 30
	cfg.NMSReportsPerCell = 0.5
	g := gen.New(cfg)
	e0 := telco.EpochOf(cfg.Start)
	n := days * telco.EpochsPerDay
	snaps := make([]*snapshot.Snapshot, 0, n)
	for i := 0; i < n; i++ {
		e := e0 + telco.Epoch(i)
		sn := snapshot.New(e)
		sn.Add(g.CDRTable(e))
		sn.Add(g.NMSTable(e))
		snaps = append(snaps, sn)
	}
	return g, snaps, telco.NewTimeRange(e0.Start(), (e0 + telco.Epoch(n)).Start())
}

func newRefEngine(tb testing.TB, g *gen.Generator) *core.Engine {
	tb.Helper()
	fs, err := dfs.NewCluster(tb.TempDir(), dfs.Config{DataNodes: 1, Replication: 1})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewNoop()})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

func startTestCluster(tb testing.TB, cfg Config, g *gen.Generator, snaps []*snapshot.Snapshot) *Local {
	tb.Helper()
	lc, err := StartLocal(cfg, g.CellTable(), LocalOptions{
		Dir:    tb.TempDir(),
		Engine: core.Options{Obs: obs.NewNoop()},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { lc.Close() })
	ctx := context.Background()
	for _, sn := range snaps {
		if err := lc.Coordinator.Ingest(ctx, sn); err != nil {
			tb.Fatal(err)
		}
	}
	if err := lc.Coordinator.FinishIngest(ctx); err != nil {
		tb.Fatal(err)
	}
	return lc
}

// TestClusterExploreMatchesSingleEngine is the identity acceptance test: a
// 4-node and a 1-node cluster ingest the same generated trace as one engine
// and must answer exploration, and a T3 aggregate, with bit-for-bit
// identical merged aggregates — with the shards' leaf caches cold, and again
// warm, when the shards rebuild no leaf they rebuilt before.
func TestClusterExploreMatchesSingleEngine(t *testing.T) {
	g, snaps, window := testTrace(t, 4)
	eng := newRefEngine(t, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()

	clusters := map[string]*Local{
		"4-shard": startTestCluster(t, Config{Shards: 4, Obs: obs.NewRegistry()}, g, snaps),
		"1-shard": startTestCluster(t, Config{Shards: 1, Obs: obs.NewRegistry()}, g, snaps),
	}
	ctx := context.Background()

	// Every node owns exactly one day under the default day-block map.
	for i, node := range clusters["4-shard"].Nodes {
		if got := node.Engine().Tree().Len(); got != telco.EpochsPerDay {
			t.Fatalf("node %d holds %d snapshots, want %d", i, got, telco.EpochsPerDay)
		}
	}

	t3 := &scanspec.Spec{GroupBy: telco.AttrCellID, Aggs: []scanspec.Agg{
		{Fn: "COUNT"}, {Fn: "SUM", Col: "drop_calls"}, {Fn: "MIN", Col: "rssi_dbm"}, {Fn: "MAX", Col: "call_attempts"},
	}}
	windows := []telco.TimeRange{
		window, // whole trace: day summaries on both sides
		{From: window.From.Add(12 * time.Hour), To: window.To.Add(-12 * time.Hour)},  // edges descend to leaves
		{From: window.From.Add(24 * time.Hour), To: window.From.Add(72 * time.Hour)}, // interior days
	}
	for _, pass := range []string{"cold", "warm"} {
		for name, lc := range clusters {
			for _, w := range windows {
				q := core.Query{Window: w}
				single, err := eng.Explore(q)
				if err != nil {
					t.Fatal(err)
				}
				cres, err := lc.Coordinator.Explore(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if cres.Partial {
					t.Fatalf("%s %s window %v: unexpected partial result (missing %v)", pass, name, w, cres.Missing)
				}
				if cres.ShardsQueried == 0 {
					t.Fatalf("%s %s window %v: no shards queried", pass, name, w)
				}
				if pass == "warm" && cres.Profile.LeavesScanned != 0 {
					t.Errorf("%s %s window %v: shards rebuilt %d leaves", pass, name, w, cres.Profile.LeavesScanned)
				}
				if !reflect.DeepEqual(single.Summary, cres.Summary) {
					t.Errorf("%s %s window %v: summaries differ: single rows=%d cluster rows=%d",
						pass, name, w, single.Summary.Rows, cres.Summary.Rows)
				}
				if !reflect.DeepEqual(single.Cells, cres.Cells) {
					t.Errorf("%s %s window %v: cell series differ (%d vs %d cells)",
						pass, name, w, len(single.Cells), len(cres.Cells))
				}
				// T3: per-cell aggregates, folded shard-side, travel as
				// binary partials and merge to the engine's answer.
				want, err := eng.AggregatePartials(ctx, w, "NMS", t3)
				if err != nil {
					t.Fatal(err)
				}
				got, err := lc.Coordinator.AggregatePartials(ctx, w, "NMS", t3)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s window %v: T3 partials differ (%d vs the engine's %d groups)",
						pass, name, w, len(got), len(want))
				}
			}
		}
	}
}

// TestClusterExactRows checks the scatter-gathered row path returns the
// same records as a single engine.
func TestClusterExactRows(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	eng := newRefEngine(t, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	lc := startTestCluster(t, Config{Shards: 2, Obs: obs.NewRegistry()}, g, snaps)

	w := telco.TimeRange{From: window.From, To: window.From.Add(3 * time.Hour)}
	q := core.Query{Window: w, ExactRows: true, Tables: []string{"CDR"}}
	single, err := eng.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := lc.Coordinator.Explore(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	st, ct := single.Rows["CDR"], cres.Rows["CDR"]
	if st == nil || ct == nil {
		t.Fatalf("missing CDR rows: single=%v cluster=%v", st != nil, ct != nil)
	}
	if len(st.Rows) == 0 || len(st.Rows) != len(ct.Rows) {
		t.Fatalf("row counts differ: single=%d cluster=%d", len(st.Rows), len(ct.Rows))
	}
}

// TestClusterPartialDegradation forces one shard past its exploration
// deadline: the answer must degrade to Partial with that shard's owned
// time-ranges enumerated, not fail — and fail only when every shard dies.
func TestClusterPartialDegradation(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	reg := obs.NewRegistry()
	lc := startTestCluster(t, Config{
		Shards:         2,
		ExploreTimeout: 150 * time.Millisecond,
		Retries:        -1, // none: fail fast into degradation
		Obs:            reg,
	}, g, snaps)
	ctx := context.Background()

	m := lc.Coordinator.Map()
	day1 := snaps[telco.EpochsPerDay].Epoch
	slow := m.TimeShardOf(day1)
	lc.Node(m.Slot(slow, 0), 0).SetExploreDelay(2 * time.Second)

	res, err := lc.Coordinator.Explore(ctx, core.Query{Window: window})
	if err != nil {
		t.Fatalf("degraded exploration failed outright: %v", err)
	}
	if !res.Partial || res.ShardsFailed != 1 {
		t.Fatalf("partial=%v failed=%d, want degraded answer", res.Partial, res.ShardsFailed)
	}
	want := m.OwnedRanges(slow, window)
	if !reflect.DeepEqual(res.Missing, want) {
		t.Fatalf("Missing = %v, want %v", res.Missing, want)
	}
	if res.Summary == nil || res.Summary.Rows == 0 {
		t.Fatalf("partial answer carries no aggregates")
	}
	// The surviving shard's day is fully present: the partial answer's rows
	// equal exploring only that day.
	healthy := 1 - slow
	hw := m.OwnedRanges(healthy, window)[0]
	hres, err := lc.Coordinator.Explore(ctx, core.Query{Window: hw})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows != hres.Summary.Rows {
		t.Fatalf("partial rows = %d, healthy shard rows = %d", res.Summary.Rows, hres.Summary.Rows)
	}

	// Degradation is accounted for.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "spate_cluster_partial_results_total 1") {
		t.Fatalf("partial counter not visible in metrics:\n%s", buf.String())
	}

	// With every shard dead the query errors instead of returning an
	// all-missing answer.
	lc.Node(m.Slot(healthy, 0), 0).SetExploreDelay(2 * time.Second)
	if _, err := lc.Coordinator.Explore(ctx, core.Query{Window: window}); err == nil {
		t.Fatal("all-shards-failed exploration succeeded")
	}
}

// TestClusterHedgedRead delays the primary replica: the hedge fired at
// HedgeDelay must win the read from the fast replica.
func TestClusterHedgedRead(t *testing.T) {
	g, snaps, window := testTrace(t, 1)
	reg := obs.NewRegistry()
	lc := startTestCluster(t, Config{
		Shards:         1,
		Replicas:       2,
		HedgeDelay:     20 * time.Millisecond,
		ExploreTimeout: 10 * time.Second,
		Obs:            reg,
	}, g, snaps)

	lc.Node(0, 0).SetExploreDelay(500 * time.Millisecond)
	res, err := lc.Coordinator.Explore(context.Background(), core.Query{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("unexpected partial result: %v", res.Missing)
	}
	if res.HedgeWins < 1 {
		t.Fatalf("HedgeWins = %d, want >= 1", res.HedgeWins)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"spate_cluster_hedged_requests_total", "spate_cluster_hedge_wins_total"} {
		if !strings.Contains(buf.String(), metric+" 1") {
			t.Fatalf("%s not visible in metrics:\n%s", metric, buf.String())
		}
	}
}

// TestClusterRetries injects one transient fault: the bounded retry loop
// must recover and account for the extra attempt.
func TestClusterRetries(t *testing.T) {
	g, snaps, window := testTrace(t, 1)
	reg := obs.NewRegistry()
	lc := startTestCluster(t, Config{
		Shards:       1,
		RetryBackoff: 5 * time.Millisecond,
		Obs:          reg,
	}, g, snaps)

	lc.Node(0, 0).FailNext(1)
	res, err := lc.Coordinator.Explore(context.Background(), core.Query{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Retries != 1 {
		t.Fatalf("partial=%v retries=%d, want clean answer after 1 retry", res.Partial, res.Retries)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `spate_cluster_retries_total{op="explore"} 1`) {
		t.Fatalf("retry counter not visible in metrics:\n%s", buf.String())
	}
}

// TestClusterIngestIdempotent replays a write — retry-after-lost-response
// semantics — and expects a duplicate-success, not an error.
func TestClusterIngestIdempotent(t *testing.T) {
	g, snaps, _ := testTrace(t, 1)
	lc := startTestCluster(t, Config{Shards: 1, Obs: obs.NewRegistry()}, g, snaps)
	before := lc.Node(0, 0).Engine().Tree().Len()
	if err := lc.Coordinator.Ingest(context.Background(), snaps[len(snaps)-1]); err != nil {
		t.Fatalf("replayed ingest: %v", err)
	}
	if got := lc.Node(0, 0).Engine().Tree().Len(); got != before {
		t.Fatalf("replay grew the tree: %d -> %d", before, got)
	}
}

// TestClusterSpatialSplit shards time AND space: row counts (exact
// integers) must survive the band routing, both everywhere and boxed.
func TestClusterSpatialSplit(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	eng := newRefEngine(t, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	lc := startTestCluster(t, Config{Shards: 2, SpatialSplit: 2, Obs: obs.NewRegistry()}, g, snaps)
	if got := len(lc.Nodes); got != 4 {
		t.Fatalf("split cluster has %d nodes, want 4", got)
	}
	ctx := context.Background()

	single, err := eng.Explore(core.Query{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := lc.Coordinator.Explore(ctx, core.Query{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if single.Summary.Rows != cres.Summary.Rows {
		t.Fatalf("rows: single=%d cluster=%d", single.Summary.Rows, cres.Summary.Rows)
	}
	if len(single.Cells) != len(cres.Cells) {
		t.Fatalf("cells: single=%d cluster=%d", len(single.Cells), len(cres.Cells))
	}

	// A box over the left half of the plane: only band-0 slots are asked,
	// and the integer row counts still match the single engine.
	var minX, maxX, minY, maxY float64
	first := true
	for _, c := range g.Cells() {
		if first {
			minX, maxX, minY, maxY = c.Pt.X, c.Pt.X, c.Pt.Y, c.Pt.Y
			first = false
			continue
		}
		minX, maxX = min(minX, c.Pt.X), max(maxX, c.Pt.X)
		minY, maxY = min(minY, c.Pt.Y), max(maxY, c.Pt.Y)
	}
	box := geo.NewRect(minX, minY, (minX+maxX)/2, maxY)
	sb, err := eng.Explore(core.Query{Window: window, Box: box})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := lc.Coordinator.Explore(ctx, core.Query{Window: window, Box: box})
	if err != nil {
		t.Fatal(err)
	}
	if sb.Summary.Rows != cb.Summary.Rows {
		t.Fatalf("boxed rows: single=%d cluster=%d", sb.Summary.Rows, cb.Summary.Rows)
	}
	if len(sb.Cells) != len(cb.Cells) {
		t.Fatalf("boxed cells: single=%d cluster=%d", len(sb.Cells), len(cb.Cells))
	}
}

// TestClusterHealth probes every node.
func TestClusterHealth(t *testing.T) {
	g, snaps, _ := testTrace(t, 1)
	lc := startTestCluster(t, Config{Shards: 1, Replicas: 2, Obs: obs.NewRegistry()}, g, snaps)
	probes := lc.Coordinator.Health(context.Background())
	if len(probes) != 2 {
		t.Fatalf("probed %d nodes, want 2", len(probes))
	}
	for url, err := range probes {
		if err != nil {
			t.Fatalf("node %s unhealthy: %v", url, err)
		}
	}
}

// TestClusterSpecScanWidensNarrowRows: shard engines scan narrow — only the
// spec's columns — yet /rpc/explore keeps shipping full-width row text, so
// a 4-shard spec scan must return, row for row, exactly what a single
// engine's narrow scan returns in the projected columns, and NULL in every
// position the shards never decoded.
func TestClusterSpecScanWidensNarrowRows(t *testing.T) {
	g, snaps, window := testTrace(t, 4)
	eng := newRefEngine(t, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	lc := startTestCluster(t, Config{Shards: 4, Obs: obs.NewRegistry()}, g, snaps)
	ctx := context.Background()

	// Day boundaries inside the window: every shard contributes.
	w := telco.TimeRange{From: window.From.Add(20 * time.Hour), To: window.To.Add(-20 * time.Hour)}
	spec := &core.ScanSpec{
		Columns: []string{telco.AttrUpflux, telco.AttrCaller},
		Preds:   []scanspec.Pred{{Col: telco.AttrDuration, Op: ">=", Kind: "int", Val: "0"}},
	}
	var narrow []telco.Record
	var layout *telco.Schema
	err := eng.ScanTablesSpec(ctx, w, []string{"CDR"}, spec, func(_ string, tab *telco.Table) error {
		layout = tab.Schema
		narrow = append(narrow, tab.Rows...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow) == 0 || layout.NumFields() != 4 { // ts, caller, duration, upflux
		t.Fatalf("single engine: %d rows under %v", len(narrow), layout)
	}
	tables, err := lc.Coordinator.ScanRows(ctx, w, []string{"CDR"}, spec)
	if err != nil {
		t.Fatal(err)
	}
	wide := tables["CDR"]
	if wide == nil || wide.Schema != telco.CDRSchema || len(wide.Rows) != len(narrow) {
		t.Fatalf("cluster: %v rows, single engine %d", wide, len(narrow))
	}
	at := make(map[int]int) // stored position -> narrow position
	for i, f := range layout.Fields {
		at[telco.CDRSchema.FieldIndex(f.Name)] = i
	}
	// Shard answers concatenate in slot order, not chronologically: compare
	// as multisets, ordered by the projected columns' wire form.
	tsPos := telco.CDRSchema.FieldIndex(telco.AttrTS)
	callerPos := telco.CDRSchema.FieldIndex(telco.AttrCaller)
	upPos := telco.CDRSchema.FieldIndex(telco.AttrUpflux)
	durPos := telco.CDRSchema.FieldIndex(telco.AttrDuration)
	sort.SliceStable(wide.Rows, func(i, j int) bool {
		a, b := wide.Rows[i], wide.Rows[j]
		return telco.Record{a[tsPos], a[callerPos], a[durPos], a[upPos]}.Line() < telco.Record{b[tsPos], b[callerPos], b[durPos], b[upPos]}.Line()
	})
	sort.SliceStable(narrow, func(i, j int) bool { return narrow[i].Line() < narrow[j].Line() })
	for i, row := range wide.Rows {
		for pos, v := range row {
			if ni, projected := at[pos]; projected {
				if want := narrow[i][ni]; v.Kind() != want.Kind() || !v.Equal(want) {
					t.Fatalf("row %d %s = %q, single engine has %q", i, telco.CDRSchema.Fields[pos].Name, v.Format(), want.Format())
				}
			} else if !v.IsNull() {
				t.Fatalf("row %d: unprojected %s = %q, want NULL", i, telco.CDRSchema.Fields[pos].Name, v.Format())
			}
		}
	}
}
