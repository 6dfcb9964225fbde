package tasks

import (
	"context"
	"fmt"
	"testing"
	"time"

	"spate/internal/cluster"
	"spate/internal/core"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/sqlengine"
)

// pushdownPropertyQueries is the battery for the pushdown ≡ row-path
// property: aggregate statements the compiler answers from partials, and
// row statements whose spec pre-filters shard-side. Grouped statements
// carry ORDER BY on the group column and row statements select exactly
// their sort keys, so every engine's answer is bit-for-bit comparable.
func pushdownPropertyQueries(start time.Time) []string {
	t1 := start.Add(time.Hour).Format("200601021504")
	t2 := start.Add(3 * time.Hour).Format("200601021504")
	return []string{
		`SELECT COUNT(*) FROM CDR`,
		`SELECT COUNT(*), SUM(duration), MIN(duration), MAX(duration) FROM CDR`,
		`SELECT COUNT(caller) FROM CDR`,
		// attr_013 is an optional flag, blank (null) in most rows.
		`SELECT COUNT(attr_013), MIN(attr_013), MAX(attr_013) FROM CDR`,
		`SELECT call_type, COUNT(attr_013), MIN(attr_013), MAX(attr_013) FROM CDR GROUP BY call_type ORDER BY call_type`,
		`SELECT SUM(upflux), SUM(downflux) FROM CDR WHERE call_type='DATA'`,
		fmt.Sprintf(`SELECT COUNT(*) FROM CDR WHERE duration>=60 AND ts>='%s' AND ts<'%s'`, t1, t2),
		fmt.Sprintf(`SELECT MIN(duration), MAX(duration) FROM CDR WHERE ts BETWEEN '%s' AND '%s'`, t1, t2),
		`SELECT COUNT(*) FROM CDR WHERE caller='nobody'`,
		`SELECT cell_id, COUNT(*) FROM CDR GROUP BY cell_id ORDER BY cell_id`,
		`SELECT cell_id, COUNT(*), SUM(duration) FROM CDR WHERE call_type='VOICE' GROUP BY cell_id ORDER BY cell_id LIMIT 5`,
		`SELECT call_type, COUNT(*) FROM CDR GROUP BY call_type ORDER BY call_type DESC`,
		`SELECT COUNT(*), SUM(drop_calls) FROM NMS`,
		`SELECT caller, ts, duration FROM CDR WHERE duration>=120 ORDER BY caller, ts, duration LIMIT 40`,
		fmt.Sprintf(`SELECT caller, ts FROM CDR WHERE ts>='%s' AND ts<'%s' AND call_type='SMS' ORDER BY caller, ts`, t1, t2),
	}
}

func assertSameResultSet(t *testing.T, q, label string, got, want *sqlengine.ResultSet) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s [%s]: cols %v, want %v", q, label, got.Cols, want.Cols)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s [%s]: %d rows, want %d", q, label, len(got.Rows), len(want.Rows))
	}
	for r := range got.Rows {
		for c := range got.Rows[r] {
			g, w := got.Rows[r][c], want.Rows[r][c]
			if g.IsNull() != w.IsNull() || g.Kind() != w.Kind() || g.Format() != w.Format() {
				t.Errorf("%s [%s]: row %d col %d = %q, want %q", q, label, r, c, g.Format(), w.Format())
			}
		}
	}
}

// TestPushdownEquivalenceSingleEngine is the single-engine half of the
// property: every query answers identically with pushdown on (partial
// aggregates, spec-filtered column scans) and off (full row
// materialization through the unchanged scan path).
func TestPushdownEquivalenceSingleEngine(t *testing.T) {
	eng, _, _ := spateWorld(t, 8)
	start := gen.DefaultConfig(0.003).Start
	cat := Catalog(Spate{E: eng})
	fast := sqlengine.NewEngine(cat)
	slow := sqlengine.NewEngine(cat)
	slow.DisablePushdown = true
	for _, q := range pushdownPropertyQueries(start) {
		got, err := fast.Query(q)
		if err != nil {
			t.Fatalf("%s (pushdown): %v", q, err)
		}
		want, err := slow.Query(q)
		if err != nil {
			t.Fatalf("%s (row path): %v", q, err)
		}
		assertSameResultSet(t, q, "single", got, want)
	}
}

// TestPushdownDecodesOnlyRequiredColumns pins the tentpole's core win: a
// pushed-down aggregate touching two of CDR's columns must leave the
// other column streams undecoded.
func TestPushdownDecodesOnlyRequiredColumns(t *testing.T) {
	eng, _, _ := spateWorld(t, 4)
	sql := sqlengine.NewEngine(Catalog(Spate{E: eng}))
	ctx, prof := core.ContextWithProfile(context.Background())
	if _, err := sql.QueryContext(ctx, `SELECT SUM(duration) FROM CDR`); err != nil {
		t.Fatal(err)
	}
	if prof.AggPartials == 0 {
		t.Fatalf("aggregate did not push down: %+v", prof)
	}
	if prof.ColumnsDecoded == 0 && prof.ChunksAggMeta == 0 {
		t.Fatalf("no columnar work recorded: %+v", prof)
	}
	// CDR has 7 columns and the query references 2 (ts, duration), so the
	// skipped stream count must dominate the decoded one.
	if prof.ColumnsSkipped <= prof.ColumnsDecoded {
		t.Fatalf("columns decoded %d, skipped %d — non-required columns were decoded",
			prof.ColumnsDecoded, prof.ColumnsSkipped)
	}
}

// TestPushdownEquivalenceCluster is the sharded half of the property: a
// 4-shard cluster ingesting the same snapshots must answer the whole
// battery bit-for-bit identically to the single engine, with partial
// aggregates merged coordinator-side.
func TestPushdownEquivalenceCluster(t *testing.T) {
	eng, g, snaps := spateWorld(t, 8)
	lc, err := cluster.StartLocal(
		cluster.Config{Shards: 4, Obs: obs.NewRegistry(), Tracer: obs.NewTracer(16)},
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
	start := gen.DefaultConfig(0.003).Start
	single := sqlengine.NewEngine(Catalog(Spate{E: eng}))
	clustered := sqlengine.NewEngine(Catalog(Cluster{C: lc.Coordinator}))
	for _, q := range pushdownPropertyQueries(start) {
		want, err := single.Query(q)
		if err != nil {
			t.Fatalf("%s (single): %v", q, err)
		}
		got, err := clustered.Query(q)
		if err != nil {
			t.Fatalf("%s (cluster): %v", q, err)
		}
		assertSameResultSet(t, q, "cluster", got, want)
	}
}
