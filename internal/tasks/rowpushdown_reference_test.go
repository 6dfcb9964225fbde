package tasks_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/tasks"
	"spate/internal/telco"
	"spate/internal/wal"
	"spate/internal/webui"
)

// rowPushdownStatements are plain SELECTs the row pushdown answers: one-
// and two-sided windows, an empty one, the quarter hour before 1970,
// predicates, aliases, qualifiers, repeated columns and *, over sealed
// leaves and the open memtable epoch.
var rowPushdownStatements = []string{
	`SELECT * FROM CDR`,
	`SELECT * FROM NMS`,
	`SELECT caller, callee, ts, duration FROM CDR WHERE ts >= '2016'`,
	`SELECT caller, ts FROM CDR WHERE ts < '1970'`,
	`SELECT ts, caller, callee FROM CDR WHERE ts >= '196912312330' AND ts < '1970'`,
	`SELECT caller FROM CDR WHERE ts >= '2016011805' AND ts < '2016011801'`,
	`SELECT ts, avg_duration, rssi_dbm FROM NMS WHERE drop_calls >= 1`,
	`SELECT n.avg_duration AS a, n.avg_duration, n.ts FROM NMS n WHERE n.ts >= '2016123123'`,
	`SELECT duration, caller, duration FROM CDR WHERE call_type = 'SMS'`,
	`SELECT * FROM CDR WHERE ts BETWEEN '2016123123' AND '2017'`,
	`SELECT ts, * FROM NMS WHERE ts >= '2017'`,
	`SELECT caller, cell_id, duration FROM CDR WHERE duration < 100 AND cell_id >= 3 AND ts <= '20170101000000'`,
	`SELECT ts, caller FROM CDR WHERE ts < '1700'`,
	`SELECT callee FROM CDR WHERE caller = 'nobody'`,
}

// recordsOnly is the SPATE framework without its column batches: a
// catalog over it answers every plain SELECT on the record path.
type recordsOnly struct {
	tasks.Framework
	tasks.SpecScanner
	tasks.PartialAggregator
}

// rowPushdownWorld is one engine holding sealed leaves of 1600, of the
// half hour before 1970, of an ordinary day and of the last half hour of
// 2016, plus unsealed rows of 2017-01-01 in its memtable. Its rows carry
// what a renderer can get wrong: nulls, blank strings, HTML and JavaScript
// line separators, wire escapes, invalid UTF-8, 1e21, NaN and infinities,
// and times on a year's edge.
func rowPushdownWorld(t *testing.T) *core.Engine {
	t.Helper()
	cfg := gen.DefaultConfig(0.003)
	cfg.Antennas = 20
	cfg.Users = 150
	cfg.CDRPerEpoch = 30
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Small chunks give each leaf several, so the order of one leaf's
	// batches shows; several scan workers read leaves side by side.
	eng, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(16), ChunkSize: 2 << 10, ScanWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	cdrTS := telco.CDRSchema.FieldIndex(telco.AttrTS)
	col := func(s *telco.Schema, name string) int { return s.FieldIndex(name) }
	texts := []telco.Value{
		telco.String(`<b>&"x"\` + "\u2028|pipe\nline" + `\p`),
		telco.Null,
		telco.String("tab\t ctrl\x01 \u2029 \xff end"),
		telco.String(`\`),
	}
	floats := []float64{1e21, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-7, 5e-324, -1e21}
	// spice rewrites a table's rows in place; edge is a time on a year's
	// edge inside the rows' epoch, given to every fifth row.
	spice := func(tab *telco.Table, edge time.Time, nullTS bool) {
		for i, r := range tab.Rows {
			switch tab.Schema.Name {
			case "CDR":
				r[col(telco.CDRSchema, telco.AttrCaller)] = texts[i%len(texts)]
				r[col(telco.CDRSchema, telco.AttrCallee)] = texts[(i+1)%len(texts)]
				if i%6 == 3 {
					r[col(telco.CDRSchema, telco.AttrDuration)] = telco.Null
				}
				if nullTS && i%9 == 4 {
					r[cdrTS] = telco.Null
				}
			case "NMS":
				r[col(telco.NMSSchema, "avg_duration")] = telco.Float(floats[i%len(floats)])
				r[col(telco.NMSSchema, "rssi_dbm")] = telco.Float(floats[(i+3)%len(floats)])
				if i%5 == 2 {
					r[col(telco.NMSSchema, "avg_duration")] = telco.Null
				}
			}
			if !edge.IsZero() && i%5 == 0 {
				r[tab.Schema.FieldIndex(telco.AttrTS)] = telco.Time(edge)
			}
		}
	}
	utc := func(y int, mo time.Month, d, h, mi, s int) time.Time {
		return time.Date(y, mo, d, h, mi, s, 0, time.UTC)
	}
	e0 := telco.EpochOf(cfg.Start)
	for _, ep := range []struct {
		at   time.Time
		edge time.Time
	}{
		{utc(1600, 3, 1, 10, 0, 0), time.Time{}},
		{utc(1969, 12, 31, 23, 30, 0), utc(1969, 12, 31, 23, 59, 59)},
		{e0.Start(), time.Time{}},
		{(e0 + 1).Start(), time.Time{}},
		{utc(2016, 12, 31, 23, 30, 0), utc(2016, 12, 31, 23, 59, 59)},
	} {
		sn := snapshot.New(telco.EpochOf(ep.at))
		for _, tab := range []*telco.Table{g.CDRTable(sn.Epoch), g.NMSTable(sn.Epoch)} {
			spice(tab, ep.edge, true)
			sn.Add(tab)
		}
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	st, err := eng.OpenStreamer(core.StreamerOptions{WALDir: t.TempDir(), Sync: wal.SyncNone, GroupWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	open := telco.EpochOf(utc(2017, 1, 1, 0, 0, 0))
	for _, tab := range []*telco.Table{g.CDRTable(open), g.NMSTable(open)} {
		spice(tab, utc(2017, 1, 1, 0, 0, 0), false)
		if err := st.Append(context.Background(), tab.Schema.Name, tab.Rows); err != nil {
			t.Fatal(err)
		}
	}
	if st.Memtable().Rows() == 0 {
		t.Fatal("no unsealed rows")
	}
	return eng
}

// answerJSON renders a record answer as encoding/json writes it, the form
// /api/sql promises: {"cols":[…],"rows":[[…],…]}, each value its wire text.
func answerJSON(t *testing.T, rs *sqlengine.ResultSet) []byte {
	t.Helper()
	rows := make([][]string, len(rs.Rows))
	for i, r := range rs.Rows {
		rows[i] = make([]string, len(r))
		for j, v := range r {
			rows[i][j] = v.Format()
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		Cols []string   `json:"cols"`
		Rows [][]string `json:"rows"`
	}{rs.Cols, rows}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRowPushdownMatchesRecordReference: every rowPushdownStatements
// statement takes the row pushdown on the engine when the caller reads
// column batches (EXPLAIN ANALYZE under QueryBatches says so), and the
// /api/sql body rendered from its column batches is byte for byte the JSON
// of the record path's answer — over a framework without batches, over
// the engine through QueryContext (the spec applied as a prefilter), and
// with no pushdown at all.
func TestRowPushdownMatchesRecordReference(t *testing.T) {
	eng := rowPushdownWorld(t)
	srv := httptest.NewServer(webui.NewServer(eng, nil, telco.TimeRange{}).Handler())
	defer srv.Close()
	spate := tasks.Spate{E: eng}
	pushed := sqlengine.NewEngine(tasks.Catalog(spate))
	unpushed := sqlengine.NewEngine(tasks.Catalog(spate))
	unpushed.DisablePushdown = true
	refs := map[string]*sqlengine.Engine{
		"record path": sqlengine.NewEngine(tasks.Catalog(recordsOnly{spate, spate, spate})),
		"no pushdown": unpushed,
		"query rows":  pushed,
	}
	ctx := context.Background()
	rowsSeen := 0
	for _, q := range rowPushdownStatements {
		plan, err := pushed.QueryBatches(ctx, "EXPLAIN ANALYZE "+q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !planHas(plan, "row pushdown: ") {
			t.Fatalf("%s: not answered by the row pushdown:\n%s", q, planText(plan))
		}
		resp, err := http.Get(srv.URL + "/api/sql?q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", q, resp.StatusCode, err, got)
		}
		for name, ref := range refs {
			rs, err := ref.QueryContext(ctx, q)
			if err != nil {
				t.Fatalf("%s (%s): %v", q, name, err)
			}
			if want := answerJSON(t, rs); !bytes.Equal(got, want) {
				t.Errorf("%s: /api/sql differs from the %s:\n got %.600s\nwant %.600s", q, name, got, want)
			}
			if name == "no pushdown" {
				rowsSeen += len(rs.Rows)
			}
		}
	}
	if rowsSeen == 0 {
		t.Fatal("no statement returned a row")
	}
}

// TestExplainNamesRowPushdown: EXPLAIN ANALYZE under QueryBatches names
// the row pushdown for a plain SELECT the engine answers from its column
// batches, and only there — not for statements that sort, limit, dedupe,
// aggregate or filter beyond the spec, nor over a framework without
// batches, nor under QueryContext, whose answers are always rows. The plan
// above the report is the same either way.
func TestExplainNamesRowPushdown(t *testing.T) {
	eng := rowPushdownWorld(t)
	spate := tasks.Spate{E: eng}
	batches := sqlengine.NewEngine(tasks.Catalog(spate))
	records := sqlengine.NewEngine(tasks.Catalog(recordsOnly{spate, spate, spate}))
	for _, tc := range []struct {
		q    string
		rows bool
	}{
		{`SELECT caller, ts FROM CDR WHERE ts >= '2016' AND duration >= 60`, true},
		{`SELECT * FROM NMS`, true},
		{`SELECT caller FROM CDR ORDER BY caller`, false},
		{`SELECT caller FROM CDR LIMIT 3`, false},
		{`SELECT DISTINCT caller FROM CDR`, false},
		{`SELECT COUNT(*) FROM CDR`, false},
		{`SELECT caller FROM CDR WHERE duration >= 60 OR cell_id = 2`, false},
		{`SELECT duration + 1 FROM CDR`, false},
	} {
		rs, err := batches.QueryBatches(context.Background(), "EXPLAIN ANALYZE "+tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := planHas(rs, "row pushdown: "); got != tc.rows {
			t.Errorf("%s: row pushdown named = %v, want %v:\n%s", tc.q, got, tc.rows, planText(rs))
		}
		rec, err := records.QueryBatches(context.Background(), "EXPLAIN ANALYZE "+tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if planHas(rec, "row pushdown: ") {
			t.Errorf("%s: row pushdown named over a framework without batches:\n%s", tc.q, planText(rec))
		}
		rows, err := batches.QueryContext(context.Background(), "EXPLAIN ANALYZE "+tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if planHas(rows, "row pushdown: ") {
			t.Errorf("%s: row pushdown named under QueryContext:\n%s", tc.q, planText(rows))
		}
		plan := func(rs *sqlengine.ResultSet) string { s, _, _ := strings.Cut(planText(rs), "rows: "); return s }
		if plan(rs) != plan(rec) {
			t.Errorf("%s: the plan depends on the path:\n%s\nvs\n%s", tc.q, plan(rs), plan(rec))
		}
	}
}

func planHas(rs *sqlengine.ResultSet, prefix string) bool {
	for _, r := range rs.Rows {
		if strings.HasPrefix(r[0].Str(), prefix) {
			return true
		}
	}
	return false
}

func planText(rs *sqlengine.ResultSet) string {
	var b strings.Builder
	for _, r := range rs.Rows {
		b.WriteString(r[0].Str())
		b.WriteByte('\n')
	}
	return b.String()
}
