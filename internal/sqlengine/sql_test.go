package sqlengine

import (
	"strings"
	"testing"
	"time"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

var cdrSchema = telco.MustSchema("CDR", []telco.Field{
	{Name: "ts", Kind: telco.KindTime},
	{Name: "caller", Kind: telco.KindString},
	{Name: "cell_id", Kind: telco.KindInt},
	{Name: "call_type", Kind: telco.KindString},
	{Name: "duration", Kind: telco.KindInt},
	{Name: "upflux", Kind: telco.KindInt},
	{Name: "downflux", Kind: telco.KindInt},
})

var nmsSchema = telco.MustSchema("NMS", []telco.Field{
	{Name: "ts", Kind: telco.KindTime},
	{Name: "cell_id", Kind: telco.KindInt},
	{Name: "val", Kind: telco.KindInt},
})

var t0 = time.Date(2016, 1, 22, 15, 30, 0, 0, time.UTC)

func testCatalog() MemCatalog {
	cdr := telco.NewTable(cdrSchema)
	rows := []struct {
		min      int
		caller   string
		cell     int64
		typ      string
		dur      int64
		up, down int64
	}{
		{0, "alice", 1, "VOICE", 60, 0, 0},
		{1, "bob", 1, "DATA", 0, 100, 1000},
		{2, "carol", 2, "SMS", 0, 0, 0},
		{40, "alice", 2, "VOICE", 120, 0, 0},
		{41, "dave", 3, "DATA", 0, 50, 700},
		{90, "alice", 3, "VOICE", 30, 0, 0},
	}
	for _, r := range rows {
		cdr.Append(telco.Record{
			telco.Time(t0.Add(time.Duration(r.min) * time.Minute)),
			telco.String(r.caller), telco.Int(r.cell), telco.String(r.typ),
			telco.Int(r.dur), telco.Int(r.up), telco.Int(r.down),
		})
	}
	nms := telco.NewTable(nmsSchema)
	for i, v := range []int64{5, 0, 7, 3} {
		nms.Append(telco.Record{
			telco.Time(t0.Add(time.Duration(i) * time.Minute)),
			telco.Int(int64(i%3 + 1)), telco.Int(v),
		})
	}
	return MemCatalog{"CDR": cdr, "NMS": nms}
}

func mustQuery(t *testing.T, sql string) *ResultSet {
	t.Helper()
	rs, err := NewEngine(testCatalog()).Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rs
}

func TestT1EqualitySnapshotQuery(t *testing.T) {
	// Paper task T1: SELECT upflux, downflux FROM CDR WHERE ts='...';
	// A minute-resolution literal selects that minute's records.
	rs := mustQuery(t, `SELECT upflux, downflux FROM CDR WHERE ts='201601221531'`)
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rs.Rows))
	}
	if rs.Rows[0][0].Int64() != 100 || rs.Rows[0][1].Int64() != 1000 {
		t.Errorf("row = %v", rs.Rows[0])
	}
	if rs.Cols[0] != "upflux" || rs.Cols[1] != "downflux" {
		t.Errorf("cols = %v", rs.Cols)
	}
}

func TestT2RangeQuery(t *testing.T) {
	// Paper task T2: WHERE ts>='2015' AND ts<='2016' — truncated literals.
	rs := mustQuery(t, `SELECT upflux, downflux FROM CDR WHERE ts>='2016' AND ts<='2017'`)
	if len(rs.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rs.Rows))
	}
	rs = mustQuery(t, `SELECT caller FROM CDR WHERE ts>='201601221600'`)
	if len(rs.Rows) != 3 { // 16:10, 16:11 and 17:00
		t.Fatalf("post-16:00 rows = %d, want 3", len(rs.Rows))
	}
}

func TestT3AggregateGroupBy(t *testing.T) {
	// Paper task T3: SELECT cellid, SUM(val) FROM NMS ... GROUP BY cellid.
	rs := mustQuery(t, `SELECT cell_id, SUM(val) AS total FROM NMS GROUP BY cell_id ORDER BY cell_id`)
	if len(rs.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rs.Rows))
	}
	want := map[int64]int64{1: 8, 2: 0, 3: 7}
	for _, r := range rs.Rows {
		if got := r[1].Int64(); got != want[r[0].Int64()] {
			t.Errorf("cell %d sum = %d, want %d", r[0].Int64(), got, want[r[0].Int64()])
		}
	}
}

func TestT4SelfJoin(t *testing.T) {
	// Paper task T4: self-join identifying movers (same caller, different
	// cell towers).
	rs := mustQuery(t, `SELECT DISTINCT a.caller FROM CDR a JOIN CDR b
		ON a.caller = b.caller WHERE a.cell_id != b.cell_id ORDER BY a.caller`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "alice" {
		t.Fatalf("movers = %v", rs.Rows)
	}
}

func TestNestedInSubquery(t *testing.T) {
	rs := mustQuery(t, `SELECT caller FROM CDR WHERE cell_id IN
		(SELECT cell_id FROM NMS WHERE val > 4) ORDER BY caller`)
	// NMS val>4: cells 1 (5) and 3 (7); CDR rows on those cells:
	// alice,bob (cell 1), dave,alice (cell 3).
	if len(rs.Rows) != 4 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestAggregatesAll(t *testing.T) {
	rs := mustQuery(t, `SELECT COUNT(*), COUNT(duration), SUM(duration),
		MIN(duration), MAX(duration), AVG(duration) FROM CDR`)
	r := rs.Rows[0]
	if r[0].Int64() != 6 || r[1].Int64() != 6 {
		t.Errorf("counts = %v", r)
	}
	if r[2].Int64() != 210 || r[3].Int64() != 0 || r[4].Int64() != 120 {
		t.Errorf("sum/min/max = %v %v %v", r[2], r[3], r[4])
	}
	if avg := r[5].Float64(); avg != 35 {
		t.Errorf("avg = %v", avg)
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	rs := mustQuery(t, `SELECT call_type, COUNT(*) AS n FROM CDR
		GROUP BY call_type HAVING COUNT(*) >= 2 ORDER BY n DESC`)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][0].Str() != "VOICE" || rs.Rows[0][1].Int64() != 3 {
		t.Errorf("first = %v", rs.Rows[0])
	}
}

func TestWhereOperators(t *testing.T) {
	tests := []struct {
		sql  string
		want int
	}{
		{`SELECT * FROM CDR WHERE call_type = 'VOICE'`, 3},
		{`SELECT * FROM CDR WHERE call_type != 'VOICE'`, 3},
		{`SELECT * FROM CDR WHERE duration > 50`, 2},
		{`SELECT * FROM CDR WHERE duration BETWEEN 30 AND 60`, 2},
		{`SELECT * FROM CDR WHERE duration NOT BETWEEN 30 AND 60`, 4},
		{`SELECT * FROM CDR WHERE caller LIKE 'a%'`, 3},
		{`SELECT * FROM CDR WHERE caller LIKE '%o%'`, 2},
		{`SELECT * FROM CDR WHERE caller LIKE '_ob'`, 1},
		{`SELECT * FROM CDR WHERE caller NOT LIKE 'a%'`, 3},
		{`SELECT * FROM CDR WHERE call_type IN ('SMS', 'DATA')`, 3},
		{`SELECT * FROM CDR WHERE call_type NOT IN ('SMS', 'DATA')`, 3},
		{`SELECT * FROM CDR WHERE NOT (call_type = 'VOICE')`, 3},
		{`SELECT * FROM CDR WHERE call_type = 'VOICE' OR call_type = 'SMS'`, 4},
		{`SELECT * FROM CDR WHERE call_type = 'VOICE' AND duration > 100`, 1},
		{`SELECT * FROM CDR WHERE duration IS NULL`, 0},
		{`SELECT * FROM CDR WHERE duration IS NOT NULL`, 6},
		{`SELECT * FROM CDR WHERE upflux + downflux > 700`, 2},
		{`SELECT * FROM CDR WHERE duration * 2 = 120`, 1},
		{`SELECT * FROM CDR WHERE -duration < 0`, 3},
		{`SELECT * FROM CDR LIMIT 2`, 2},
	}
	for _, tc := range tests {
		rs := mustQuery(t, tc.sql)
		if len(rs.Rows) != tc.want {
			t.Errorf("%s: rows = %d, want %d", tc.sql, len(rs.Rows), tc.want)
		}
	}
}

func TestOrderByDirections(t *testing.T) {
	rs := mustQuery(t, `SELECT caller, duration FROM CDR WHERE call_type='VOICE' ORDER BY duration DESC`)
	if rs.Rows[0][1].Int64() != 120 || rs.Rows[2][1].Int64() != 30 {
		t.Errorf("desc order = %v", rs.Rows)
	}
	rs = mustQuery(t, `SELECT caller, duration FROM CDR WHERE call_type='VOICE' ORDER BY duration ASC`)
	if rs.Rows[0][1].Int64() != 30 {
		t.Errorf("asc order = %v", rs.Rows)
	}
}

func TestSelectStarExpands(t *testing.T) {
	rs := mustQuery(t, `SELECT * FROM NMS LIMIT 1`)
	if len(rs.Cols) != 3 || rs.Cols[0] != "ts" || rs.Cols[2] != "val" {
		t.Errorf("cols = %v", rs.Cols)
	}
}

func TestDistinct(t *testing.T) {
	rs := mustQuery(t, `SELECT DISTINCT call_type FROM CDR ORDER BY call_type`)
	if len(rs.Rows) != 3 {
		t.Fatalf("distinct types = %v", rs.Rows)
	}
}

func TestQualifiedAndAmbiguousColumns(t *testing.T) {
	eng := NewEngine(testCatalog())
	// cell_id exists in both tables of a join: unqualified is ambiguous.
	_, err := eng.Query(`SELECT cell_id FROM CDR a JOIN NMS b ON a.cell_id = b.cell_id`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column err = %v", err)
	}
	rs, err := eng.Query(`SELECT a.cell_id FROM CDR a JOIN NMS b ON a.cell_id = b.cell_id LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Errorf("rows = %d", len(rs.Rows))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM CDR`,
		`SELECT * FORM CDR`,
		`SELECT * FROM CDR WHERE`,
		`SELECT * FROM CDR GROUP`,
		`SELECT * FROM CDR LIMIT x`,
		`SELECT * FROM CDR; SELECT 1`,
		`SELECT * FROM CDR WHERE caller LIKE 5`,
		`SELECT * FROM CDR WHERE ts = 'x' AND`,
		`SELECT * FROM 42`,
		`SELECT * FROM CDR WHERE a ==== b`,
		`SELECT * FROM CDR WHERE name = 'unterminated`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): want error", sql)
		}
	}
}

func TestRunErrors(t *testing.T) {
	eng := NewEngine(testCatalog())
	bad := []string{
		`SELECT nosuchcol FROM CDR`,
		`SELECT * FROM NoSuchTable`,
		`SELECT caller FROM CDR WHERE cell_id IN (SELECT cell_id, val FROM NMS)`,
	}
	for _, sql := range bad {
		if _, err := eng.Query(sql); err == nil {
			t.Errorf("Query(%q): want error", sql)
		}
	}
}

// tsWindow is the ts window the engine derives for binding b, laid out as
// schema, from sql's WHERE clause.
func tsWindow(t *testing.T, sql, b string, schema *telco.Schema) *scanspec.TimeWindow {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return decomposeWhere(stmt.Where, b, schema).win
}

func TestWindowPushdown(t *testing.T) {
	// A truncated literal bounds ts <= from the start of its minute: a row
	// of 16:30:xx formats longer than '201601221630', so it sorts after it.
	w := tsWindow(t, `SELECT * FROM CDR WHERE ts >= '2016' AND ts <= '201601221630' AND duration > 0`, "CDR", cdrSchema)
	wantLo := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	wantHi := time.Date(2016, 1, 22, 16, 30, 0, 0, time.UTC)
	if w == nil || !w.HasFrom || !w.HasTo || w.From != wantLo.Unix() || w.To != wantHi.Unix() {
		t.Errorf("window = %+v, want [%d, %d)", w, wantLo.Unix(), wantHi.Unix())
	}
	// Equality pins a single-minute window.
	if w := tsWindow(t, `SELECT * FROM CDR WHERE ts = '201601221530'`, "CDR", cdrSchema); w == nil || !w.HasFrom || !w.HasTo || w.To-w.From != 60 {
		t.Errorf("equality window = %+v", w)
	}
	// OR disables pushdown (not a pure conjunction on ts).
	if w := tsWindow(t, `SELECT * FROM CDR WHERE ts = '2016' OR duration > 5`, "CDR", cdrSchema); w != nil {
		t.Errorf("window %+v derived from OR", w)
	}
	// A conjunct of another binding bounds nothing here.
	if w := tsWindow(t, `SELECT * FROM CDR c JOIN CDR d ON c.caller = d.caller WHERE d.ts < '2016'`, "c", cdrSchema); w != nil {
		t.Errorf("window %+v derived from another binding's ts", w)
	}
}

// TestOneSidedTimeBoundStaysOpen: a WHERE clause bounding ts on one side
// pushes down a window open on the other, so a catalog that prunes by the
// hint keeps rows dated before 1970 and after 2100 (it used to close the
// open side at those years and drop them).
func TestOneSidedTimeBoundStaysOpen(t *testing.T) {
	schema := telco.MustSchema("T", []telco.Field{{Name: "ts", Kind: telco.KindTime}})
	tab := telco.NewTable(schema)
	for _, ts := range []time.Time{
		time.Date(1969, 7, 20, 20, 17, 0, 0, time.UTC),
		time.Date(2016, 1, 18, 9, 30, 0, 0, time.UTC),
		time.Date(2500, 1, 18, 1, 0, 0, 0, time.UTC),
	} {
		tab.Append(telco.Record{telco.Time(ts)})
	}
	eng := NewEngine(MemCatalog{"T": tab})
	for sql, want := range map[string]int64{
		`SELECT COUNT(*) FROM T WHERE ts > '2016'`:                  2,
		`SELECT COUNT(*) FROM T WHERE ts < '2017'`:                  2,
		`SELECT COUNT(*) FROM T WHERE '2016' <= ts`:                 2,
		`SELECT COUNT(*) FROM T WHERE ts >= '1969' AND ts < '2016'`: 1,
		`SELECT COUNT(*) FROM T WHERE ts >= '2016' AND ts < '2017'`: 1,
		`SELECT COUNT(*) FROM T WHERE ts > '2016' OR ts < '2016'`:   3,
	} {
		rs, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := rs.Rows[0][0].Int64(); got != want {
			t.Errorf("%s = %d, want %d", sql, got, want)
		}
	}
	if w := tsWindow(t, `SELECT * FROM T WHERE ts > '2016'`, "T", schema); w == nil || !w.HasFrom || w.HasTo {
		t.Errorf("ts > '2016' pushes down %+v, want a window open above", w)
	}
	if w := tsWindow(t, `SELECT * FROM T WHERE ts < '2300'`, "T", schema); w == nil || w.HasFrom || !w.HasTo {
		t.Errorf("ts < '2300' pushes down %+v, want a window open below", w)
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	rs := mustQuery(t, `SELECT COUNT(*), SUM(duration) FROM CDR WHERE duration > 99999`)
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Rows[0][0].Int64() != 0 || !rs.Rows[0][1].IsNull() {
		t.Errorf("empty agg = %v", rs.Rows[0])
	}
}

func TestLikeMatcher(t *testing.T) {
	tests := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "x%", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%b%c", true},
		{"ab", "a_b", false},
	}
	for _, tc := range tests {
		if got := likeMatch(tc.s, tc.p); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v", tc.s, tc.p, got)
		}
	}
}

func TestParseTimeLit(t *testing.T) {
	lo, hi, ok := parseTimeLit("2016")
	if !ok || lo.Year() != 2016 || hi.Year() != 2017 {
		t.Errorf("year literal = %v..%v", lo, hi)
	}
	if _, _, ok := parseTimeLit("20"); ok {
		t.Error("bad length accepted")
	}
	if _, _, ok := parseTimeLit("abcd"); ok {
		t.Error("non-numeric accepted")
	}
	lo, hi, ok = parseTimeLit("20160122153000")
	if !ok || hi.Sub(lo) != time.Second {
		t.Errorf("full literal = %v..%v", lo, hi)
	}
}
