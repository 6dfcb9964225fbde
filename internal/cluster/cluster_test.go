package cluster

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
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
// records a single engine does, field for field: over 1 and 4 shards, with
// and without a box, a window across the day boundary yields every table
// under the engine's schema and, as a multiset (shards concatenate in slot
// order), the engine's rows.
func TestClusterExactRows(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	eng := newRefEngine(t, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	clusters := map[int]*Local{
		1: startTestCluster(t, Config{Shards: 1, Obs: obs.NewRegistry()}, g, snaps),
		4: startTestCluster(t, Config{Shards: 4, Obs: obs.NewRegistry()}, g, snaps),
	}

	w := telco.TimeRange{From: window.From.Add(21 * time.Hour), To: window.From.Add(27 * time.Hour)}
	box := cellBox(g)
	box.MaxX = (box.MinX + box.MaxX) / 2
	everywhere := 0
	for _, b := range []geo.Rect{{}, box} {
		q := core.Query{Window: w, Box: b, ExactRows: true}
		single, err := eng.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, tab := range single.Rows {
			n += tab.Len()
		}
		if n == 0 || n == everywhere {
			t.Fatalf("box %v: the engine returns %d rows (%d without the box): the case checks nothing", b, n, everywhere)
		}
		everywhere = n
		for shards, lc := range clusters {
			cres, err := lc.Coordinator.Explore(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"CDR", "NMS"} {
				st, ct := single.Rows[name], cres.Rows[name]
				if st == nil || ct == nil {
					t.Fatalf("%d shards, box %v: %s rows missing: single=%v cluster=%v", shards, b, name, st != nil, ct != nil)
				}
				if !slices.Equal(st.Schema.Fields, ct.Schema.Fields) {
					t.Fatalf("%d shards, box %v: %s layouts differ", shards, b, name)
				}
				if want, got := rowMultiset(st), rowMultiset(ct); !slices.Equal(got, want) {
					t.Fatalf("%d shards, box %v: %s rows differ: %d rows, the engine's %d", shards, b, name, len(got), len(want))
				}
			}
		}
	}
}

// cellBox is the smallest box holding every cell of the generated world.
func cellBox(g *gen.Generator) geo.Rect {
	cells := g.CellTable()
	xi, yi := cells.Schema.FieldIndex("x_km"), cells.Schema.FieldIndex("y_km")
	var box geo.Rect
	for i, c := range cells.Rows {
		pt := geo.Point{X: c[xi].Float64(), Y: c[yi].Float64()}
		if i == 0 {
			box = geo.NewRect(pt.X, pt.Y, pt.X, pt.Y)
		}
		box = box.Expand(pt)
	}
	return box
}

// rowMultiset renders a table's rows value by value (kind and wire form)
// and sorts them: two tables hold the same records, in any order, exactly
// when their multisets are equal.
func rowMultiset(tab *telco.Table) []string {
	out := make([]string, len(tab.Rows))
	for i, r := range tab.Rows {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "%d:%s\x1f", v.Kind(), v.Format())
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
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

// TestClusterSpecScanIsEngineNarrowScan: shard engines scan narrow — only
// the spec's columns plus the timestamp — and ship their rows in that
// layout, so a 1- or 4-shard spec scan returns exactly what a single
// engine's narrow scan hands out: the same field names in the same order,
// and the same rows, value for value and bit for bit. Specs: a projection
// subset, a predicate on a column the projection leaves out, and no
// columns at all (SELECT *, the stored width).
func TestClusterSpecScanIsEngineNarrowScan(t *testing.T) {
	g, snaps, window := testTrace(t, 4)
	eng := newRefEngine(t, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	ctx := context.Background()
	// Day boundaries inside the window: every shard contributes.
	w := telco.TimeRange{From: window.From.Add(20 * time.Hour), To: window.To.Add(-20 * time.Hour)}
	specs := map[string]*core.ScanSpec{
		"projection": {Columns: []string{telco.AttrUpflux, telco.AttrDownflux}},
		"predicate": {
			Columns: []string{telco.AttrUpflux, telco.AttrCaller},
			Preds:   []scanspec.Pred{{Col: telco.AttrDuration, Op: ">", Kind: "int", Val: "100"}},
		},
		"select *": {Preds: []scanspec.Pred{{Col: telco.AttrDuration, Op: ">=", Kind: "int", Val: "0"}}},
	}
	widths := map[string]int{"projection": 3, "predicate": 4, "select *": telco.CDRSchema.NumFields()}
	// sorted orders rows by their record text: shard answers concatenate
	// in slot order, not chronologically.
	sorted := func(rows []telco.Record) []telco.Record {
		rows = slices.Clone(rows)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Line() < rows[j].Line() })
		return rows
	}
	for _, shards := range []int{1, 4} {
		lc := startTestCluster(t, Config{Shards: shards, Obs: obs.NewRegistry()}, g, snaps)
		for name, spec := range specs {
			var want *telco.Table
			err := eng.ScanTablesSpec(ctx, w, geo.Rect{}, []string{"CDR"}, spec, func(_ string, tab *telco.Table) error {
				if want == nil {
					want = &telco.Table{Schema: tab.Schema}
				} else if want.Schema != tab.Schema {
					t.Fatalf("%s: the engine scanned in two layouts", name)
				}
				want.Rows = append(want.Rows, tab.Rows...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil || want.Len() == 0 || want.Schema.NumFields() != widths[name] {
				t.Fatalf("%s: single engine: %v", name, want)
			}
			tables, err := lc.Coordinator.ScanRows(ctx, w, []string{"CDR"}, spec)
			if err != nil {
				t.Fatal(err)
			}
			got := tables["CDR"]
			if len(tables) != 1 || got == nil {
				t.Fatalf("%d shards, %s: tables %v", shards, name, tables)
			}
			if !slices.Equal(got.Schema.Fields, want.Schema.Fields) || got.Schema.Name != want.Schema.Name {
				t.Fatalf("%d shards, %s: layout %v, the engine's %v", shards, name, got.Schema, want.Schema)
			}
			if !reflect.DeepEqual(sorted(got.Rows), sorted(want.Rows)) {
				t.Errorf("%d shards, %s: %d rows differ from the engine's %d", shards, name, got.Len(), want.Len())
			}
		}
	}
}
