package tasks

import (
	"context"
	"fmt"
	"testing"
	"time"

	"spate/internal/cluster"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/raw"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/telco"
	"spate/internal/wal"
)

// windowReferenceQueries bound ts with literals far from the data — '1600'
// before the nanosecond range, '2100' between an ordinary day and a
// snapshot of 2150, '2300' after the nanosecond range — on one side, on
// both, through BETWEEN, truncated to the day, hour and minute, and with
// the literal on the left; aggregate statements push down, row statements
// select their own sort keys.
var windowReferenceQueries = []string{
	`SELECT COUNT(*) FROM CDR`,
	`SELECT COUNT(*) FROM CDR WHERE ts < '2300'`,
	`SELECT COUNT(*) FROM CDR WHERE ts <= '2300'`,
	`SELECT COUNT(*) FROM CDR WHERE ts >= '1600'`,
	`SELECT COUNT(*) FROM CDR WHERE ts > '1600'`,
	`SELECT COUNT(*) FROM CDR WHERE ts >= '2100'`,
	`SELECT COUNT(*) FROM CDR WHERE ts < '2100'`,
	`SELECT COUNT(*) FROM CDR WHERE '2100' <= ts`,
	`SELECT COUNT(*), SUM(duration) FROM CDR WHERE ts >= '1600' AND ts < '2300'`,
	`SELECT COUNT(*), SUM(duration) FROM CDR WHERE ts >= '1600' AND ts < '2100'`,
	`SELECT COUNT(*), SUM(duration) FROM CDR WHERE ts >= '2100' AND ts < '2300'`,
	`SELECT COUNT(*), MIN(duration), MAX(duration) FROM CDR WHERE ts BETWEEN '1600' AND '2300'`,
	`SELECT COUNT(*) FROM CDR WHERE ts BETWEEN '2100' AND '2300'`,
	`SELECT COUNT(*) FROM CDR WHERE ts BETWEEN '2300' AND '1600'`,
	`SELECT COUNT(*) FROM CDR WHERE ts = '2150'`,
	`SELECT COUNT(*) FROM CDR WHERE ts >= '21500118' AND ts < '2300'`,
	`SELECT COUNT(*) FROM CDR WHERE ts < '2016011801' AND ts >= '1600'`,
	`SELECT COUNT(*) FROM CDR WHERE ts <= '201601180030'`,
	`SELECT SUM(duration) FROM CDR WHERE ts > '2100' AND duration >= 60`,
	`SELECT call_type, COUNT(*) FROM CDR WHERE ts >= '1600' GROUP BY call_type ORDER BY call_type`,
	`SELECT COUNT(*) FROM NMS WHERE ts < '2300'`,
	`SELECT COUNT(*) FROM NMS WHERE ts >= '2100'`,
	`SELECT caller, ts, duration FROM CDR WHERE ts >= '2100' ORDER BY ts, caller, duration`,
	`SELECT caller, ts, duration FROM CDR WHERE ts < '2300' AND duration >= 300 ORDER BY ts, caller, duration`,
	`SELECT caller, ts FROM CDR WHERE ts BETWEEN '1600' AND '2100' AND call_type = 'SMS' ORDER BY ts, caller`,
}

// TestTimeWindowsMatchReference: over an ordinary day and a snapshot of
// 2150, SPATE answers every windowReferenceQueries statement as the in-memory
// reference does (sqlengine.MemCatalog over the same snapshots), on one
// engine and on a 4-shard cluster, with pushdown on and off, and so does
// the flat-file RAW store. The pushdown equivalence tests compare SPATE
// with itself and cannot see a row every route of it loses.
func TestTimeWindowsMatchReference(t *testing.T) {
	cfg := gen.DefaultConfig(0.003)
	cfg.Antennas = 20
	cfg.Users = 150
	cfg.CDRPerEpoch = 30
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(16)})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := raw.Open(fs, g.CellTable())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cluster.StartLocal(
		cluster.Config{Shards: 4, BlockEpochs: 1, Obs: obs.NewRegistry(), Tracer: obs.NewTracer(16)},
		g.CellTable(),
		cluster.LocalOptions{Dir: t.TempDir(), Engine: core.Options{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(64)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	fws := []Framework{Spate{eng}, Cluster{lc.Coordinator}, Raw{rw}}

	ref := sqlengine.MemCatalog{"CDR": telco.NewTable(telco.CDRSchema), "NMS": telco.NewTable(telco.NMSSchema)}
	e0 := telco.EpochOf(cfg.Start)
	far := telco.EpochOf(time.Date(2150, 1, 18, 0, 0, 0, 0, time.UTC))
	for _, e := range []telco.Epoch{e0, e0 + 1, e0 + 2, e0 + 3, far} {
		sn := snapshot.New(e)
		sn.Add(g.CDRTable(e))
		sn.Add(g.NMSTable(e))
		for name, tab := range ref {
			tab.Rows = append(tab.Rows, sn.Table(name).Rows...)
		}
		for _, f := range fws {
			if _, err := f.Ingest(cloneSnapshot(sn)); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
		}
	}
	for _, f := range fws {
		f.Finish()
	}
	if n := ref["CDR"].Len(); n == 0 {
		t.Fatal("no CDR rows generated")
	}

	reference := sqlengine.NewEngine(ref)
	for _, q := range windowReferenceQueries {
		want, err := reference.Query(q)
		if err != nil {
			t.Fatalf("%s (reference): %v", q, err)
		}
		for _, f := range fws {
			for _, off := range []bool{false, true} {
				e := sqlengine.NewEngine(Catalog(f))
				e.DisablePushdown = off
				got, err := e.QueryContext(context.Background(), q)
				if err != nil {
					t.Fatalf("%s (%s, pushdown off %v): %v", q, f.Name(), off, err)
				}
				assertSameResultSet(t, q, fmt.Sprintf("%s, pushdown off %v", f.Name(), off), got, want)
			}
		}
	}
}

// TestWindowEndingOnEpochReadsNoFurther: a statement whose window ends on
// an epoch boundary with a fourteen-digit literal reads nothing of the next
// epoch — neither its sealed leaf nor its unsealed memtable rows — since
// the scan's window ends where the WHERE clause does.
func TestWindowEndingOnEpochReadsNoFurther(t *testing.T) {
	cfg := gen.DefaultConfig(0.003)
	cfg.Antennas = 20
	cfg.Users = 150
	cfg.CDRPerEpoch = 30
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
	for _, e := range []telco.Epoch{e0, e0 + 1} {
		sn := snapshot.New(e)
		sn.Add(g.NMSTable(e))
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	st, err := eng.OpenStreamer(core.StreamerOptions{WALDir: t.TempDir(), Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(context.Background(), "NMS", g.NMSTable(e0+2).Rows); err != nil {
		t.Fatal(err)
	}
	sql := sqlengine.NewEngine(Catalog(Spate{eng}))
	for _, e := range []telco.Epoch{e0, e0 + 1} {
		q := fmt.Sprintf(`SELECT cell_id, SUM(drop_calls) FROM NMS WHERE ts >= '%s' AND ts < '%s' GROUP BY cell_id ORDER BY cell_id`,
			e.Start().Format(telco.TimeLayout), e.End().Format(telco.TimeLayout))
		ctx, prof := core.ContextWithProfile(context.Background())
		if _, err := sql.QueryContext(ctx, q); err != nil {
			t.Fatal(err)
		}
		if prof.LeavesScanned != 1 || prof.MemRows != 0 {
			t.Errorf("%s: %d leaves scanned, %d memtable rows read; want 1 and 0", q, prof.LeavesScanned, prof.MemRows)
		}
	}
}
