package sqlengine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"spate/internal/telco"
)

// This file cross-checks the SQL executor against an independent Go
// reference implementation on randomly generated predicate trees, SELECT
// lists and group keys — the property-based guard for the WHERE, projection
// and grouping semantics.

// refPred is a predicate evaluated two ways: rendered to SQL for the
// engine and applied directly in Go.
type refPred interface {
	sql() string
	eval(row map[string]int64) bool
}

type refCmp struct {
	col string
	op  string
	val int64
}

func (c refCmp) sql() string { return fmt.Sprintf("%s %s %d", c.col, c.op, c.val) }

func (c refCmp) eval(row map[string]int64) bool {
	v := row[c.col]
	switch c.op {
	case "=":
		return v == c.val
	case "!=":
		return v != c.val
	case "<":
		return v < c.val
	case "<=":
		return v <= c.val
	case ">":
		return v > c.val
	default:
		return v >= c.val
	}
}

type refLogic struct {
	op   string // AND | OR
	l, r refPred
}

func (l refLogic) sql() string {
	return "(" + l.l.sql() + " " + l.op + " " + l.r.sql() + ")"
}

func (l refLogic) eval(row map[string]int64) bool {
	if l.op == "AND" {
		return l.l.eval(row) && l.r.eval(row)
	}
	return l.l.eval(row) || l.r.eval(row)
}

type refNot struct{ x refPred }

func (n refNot) sql() string                    { return "NOT (" + n.x.sql() + ")" }
func (n refNot) eval(row map[string]int64) bool { return !n.x.eval(row) }

type refBetween struct {
	col    string
	lo, hi int64
}

func (b refBetween) sql() string {
	return fmt.Sprintf("%s BETWEEN %d AND %d", b.col, b.lo, b.hi)
}

func (b refBetween) eval(row map[string]int64) bool {
	v := row[b.col]
	return v >= b.lo && v <= b.hi
}

type refIn struct {
	col  string
	vals []int64
}

func (i refIn) sql() string {
	parts := make([]string, len(i.vals))
	for j, v := range i.vals {
		parts[j] = fmt.Sprint(v)
	}
	return fmt.Sprintf("%s IN (%s)", i.col, strings.Join(parts, ", "))
}

func (i refIn) eval(row map[string]int64) bool {
	for _, v := range i.vals {
		if row[i.col] == v {
			return true
		}
	}
	return false
}

// refTime compares ts with a string literal the way the executor always
// has: on the wire form, except that = and != against a literal shorter
// than the layout mean containment in the interval it covers (nothing, for
// a literal that covers none).
type refTime struct {
	op, lit string
	litLeft bool
}

func (p refTime) sql() string {
	if p.litLeft {
		return fmt.Sprintf("'%s' %s ts", p.lit, p.op)
	}
	return fmt.Sprintf("ts %s '%s'", p.op, p.lit)
}

func (p refTime) eval(row map[string]int64) bool {
	ts := time.Unix(row["ts"], 0).UTC()
	wire := ts.Format(telco.TimeLayout)
	if p.op == "=" || p.op == "!=" {
		eq := wire == p.lit
		if len(p.lit) < len(telco.TimeLayout) {
			lo, hi, ok := refInterval(p.lit)
			eq = ok && !ts.Before(lo) && ts.Before(hi)
		}
		return eq == (p.op == "=")
	}
	c := strings.Compare(wire, p.lit)
	if p.litLeft {
		c = -c
	}
	return refHolds(p.op, c)
}

// refInterval is the interval a truncated timestamp literal covers.
func refInterval(lit string) (lo, hi time.Time, ok bool) {
	steps := map[int]func(time.Time) time.Time{
		4:  func(t time.Time) time.Time { return t.AddDate(1, 0, 0) },
		6:  func(t time.Time) time.Time { return t.AddDate(0, 1, 0) },
		8:  func(t time.Time) time.Time { return t.AddDate(0, 0, 1) },
		10: func(t time.Time) time.Time { return t.Add(time.Hour) },
		12: func(t time.Time) time.Time { return t.Add(time.Minute) },
	}
	step, found := steps[len(lit)]
	if !found {
		return lo, hi, false
	}
	lo, err := time.ParseInLocation(telco.TimeLayout[:len(lit)], lit, time.UTC)
	if err != nil {
		return lo, hi, false
	}
	return lo, step(lo), true
}

// refHolds applies a comparison operator to a three-way compare.
func refHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}

// refTimeBetween and refTimeIn order and match ts on its wire form alone.
type refTimeBetween struct{ lo, hi string }

func (b refTimeBetween) sql() string { return fmt.Sprintf("ts BETWEEN '%s' AND '%s'", b.lo, b.hi) }

func (b refTimeBetween) eval(row map[string]int64) bool {
	wire := time.Unix(row["ts"], 0).UTC().Format(telco.TimeLayout)
	return wire >= b.lo && wire <= b.hi
}

type refTimeIn struct{ lits []string }

func (i refTimeIn) sql() string { return "ts IN ('" + strings.Join(i.lits, "', '") + "')" }

func (i refTimeIn) eval(row map[string]int64) bool {
	wire := time.Unix(row["ts"], 0).UTC().Format(telco.TimeLayout)
	for _, l := range i.lits {
		if wire == l {
			return true
		}
	}
	return false
}

var refCols = []string{"a", "b", "c"}

// refTimes are the row timestamps, in Unix seconds: mostly three hours of
// 2016-01-18 and, one row in ten, a year outside it — before 1000 (a
// leading zero on the wire), before 1970, after 2100 and after 9999 (five
// year digits), and before year 0 (a sign).
func refTimes(rng *rand.Rand, n int) []int64 {
	base := time.Date(2016, 1, 18, 0, 0, 0, 0, time.UTC)
	outliers := []time.Time{
		time.Date(999, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1969, 7, 20, 20, 17, 0, 0, time.UTC),
		time.Date(2500, 1, 18, 1, 0, 0, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(12016, 1, 18, 0, 0, 0, 0, time.UTC),
		time.Date(-5, 1, 18, 0, 0, 0, 0, time.UTC),
	}
	out := make([]int64, n)
	for i := range out {
		if rng.Intn(10) == 0 {
			out[i] = outliers[rng.Intn(len(outliers))].Unix()
		} else {
			out[i] = base.Add(time.Duration(rng.Intn(3*3600)) * time.Second).Unix()
		}
	}
	return out
}

// randTimeLit draws a string literal near one of the row timestamps, in
// every shape a statement may write: canonical fourteen digits, truncated
// to 4–12, 13 or 15 digits, with a non-digit, naming month 13, with a year
// below 1000, or exactly a five-digit year's wire form.
func randTimeLit(rng *rand.Rand, times []int64) string {
	t := time.Unix(times[rng.Intn(len(times))], 0).UTC().Add(time.Duration(rng.Intn(5)-2) * time.Second)
	wire := t.Format(telco.TimeLayout)
	if len(wire) != len(telco.TimeLayout) || wire[0] == '0' {
		return wire // a year after 9999, before 1000 or before year 0
	}
	switch rng.Intn(12) {
	case 0, 1, 2:
		return wire
	case 3:
		return wire[:8]
	case 4:
		return wire[:12]
	case 5:
		return wire[:4+2*rng.Intn(4)] // 4, 6, 8 or 10 digits
	case 6:
		return wire[:13]
	case 7:
		return wire + "0"
	case 8:
		return wire[:13] + "x"
	case 9:
		return "2016" + "13" + wire[6:]
	case 10:
		return "0" + wire[1:]
	default:
		return "20160118"
	}
}

func randPred(rng *rand.Rand, depth int, times []int64) refPred {
	if depth > 0 && rng.Float64() < 0.6 {
		switch rng.Intn(3) {
		case 0:
			return refLogic{"AND", randPred(rng, depth-1, times), randPred(rng, depth-1, times)}
		case 1:
			return refLogic{"OR", randPred(rng, depth-1, times), randPred(rng, depth-1, times)}
		default:
			return refNot{randPred(rng, depth-1, times)}
		}
	}
	col := refCols[rng.Intn(len(refCols))]
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	switch rng.Intn(6) {
	case 0:
		return refCmp{col, ops[rng.Intn(len(ops))], int64(rng.Intn(20))}
	case 1:
		lo := int64(rng.Intn(15))
		return refBetween{col, lo, lo + int64(rng.Intn(8))}
	case 2:
		n := 1 + rng.Intn(4)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(20))
		}
		return refIn{col, vals}
	case 3, 4:
		return refTime{ops[rng.Intn(len(ops))], randTimeLit(rng, times), rng.Intn(3) == 0}
	default:
		if rng.Intn(2) == 0 {
			lo, hi := randTimeLit(rng, times), randTimeLit(rng, times)
			if hi < lo && rng.Intn(4) > 0 {
				lo, hi = hi, lo
			}
			return refTimeBetween{lo, hi}
		}
		return refTimeIn{[]string{randTimeLit(rng, times), randTimeLit(rng, times)}}
	}
}

// fullScan is a catalog whose tables ignore scan hints, as raw text files
// do: which rows a statement returns is the executor's doing alone.
type fullScan map[string]*telco.Table

func (c fullScan) Table(name string) (Provider, error) {
	t, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("test: unknown table %q", name)
	}
	return fullScanProvider{t}, nil
}

type fullScanProvider struct{ t *telco.Table }

func (p fullScanProvider) Schema() *telco.Schema { return p.t.Schema }

func (p fullScanProvider) Scan(_ context.Context, _ ScanHint, fn func(*telco.Table) error) error {
	return fn(p.t)
}

// refSelect is a SELECT list of plain columns drawn at random: *, bare,
// qualified and aliased columns, repeated and in any order. The columns of
// each item are (binding, column) pairs; names are the output names.
type refSelect struct {
	sql   []string
	names []string
	cols  [][2]int // binding index, column index
}

// randSelect draws a list over the given bindings (qualifiers, "" for a
// lone table read unqualified) of a table with columns refAllCols.
func randSelect(rng *rand.Rand, quals []string) refSelect {
	var s refSelect
	alias := 0
	for n := 1 + rng.Intn(5); n > 0; n-- {
		if rng.Intn(6) == 0 {
			s.sql = append(s.sql, "*")
			for b := range quals {
				for c, name := range refAllCols {
					s.names = append(s.names, name)
					s.cols = append(s.cols, [2]int{b, c})
				}
			}
			continue
		}
		b, c := rng.Intn(len(quals)), rng.Intn(len(refAllCols))
		ref := refAllCols[c]
		if quals[b] != "" {
			ref = quals[b] + "." + ref
		} else if rng.Intn(3) == 0 {
			ref = "T." + ref
		}
		name := ref
		if rng.Intn(3) == 0 {
			alias++
			name = fmt.Sprintf("x%d", alias)
			ref += " AS " + name
		}
		s.sql = append(s.sql, ref)
		s.names = append(s.names, name)
		s.cols = append(s.cols, [2]int{b, c})
	}
	// Now and then the table's own columns in order: the projection that
	// reslices each row.
	if len(quals) == 1 && rng.Intn(5) == 0 {
		s = refSelect{}
		for c, name := range refAllCols[:1+rng.Intn(len(refAllCols))] {
			s.sql = append(s.sql, name)
			s.names = append(s.names, name)
			s.cols = append(s.cols, [2]int{0, c})
		}
	}
	return s
}

// refAllCols is the reference table's layout.
var refAllCols = []string{"id", "a", "b", "c", "ts"}

// refValue is the value the reference table holds for one column of row.
func refValue(row map[string]int64, col string) telco.Value {
	if col == "ts" {
		return telco.Time(time.Unix(row["ts"], 0))
	}
	return telco.Int(row[col])
}

// checkRows compares an answer with the reference's rows, value by value.
func checkRows(t *testing.T, what string, rs *ResultSet, names []string, want [][]telco.Value) {
	t.Helper()
	if strings.Join(rs.Cols, ",") != strings.Join(names, ",") {
		t.Fatalf("%s\n cols %v, reference %v", what, rs.Cols, names)
	}
	if len(rs.Rows) != len(want) {
		t.Fatalf("%s\n engine %d rows, reference %d", what, len(rs.Rows), len(want))
	}
	for i := range want {
		if len(rs.Rows[i]) != len(want[i]) || cap(rs.Rows[i]) != len(want[i]) {
			t.Fatalf("%s\n row %d: %d values (cap %d), reference %d", what, i, len(rs.Rows[i]), cap(rs.Rows[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if g := rs.Rows[i][j]; g.Kind() != w.Kind() || g.Format() != w.Format() {
				t.Fatalf("%s\n row %d col %d: engine %s, reference %s", what, i, j, g.Format(), w.Format())
			}
		}
	}
}

// TestExecutorMatchesReferenceOnRandomPredicates: random predicate trees
// over integer columns and a timestamp — compared with time literals of
// every shape, on either side — select the rows the reference selects, on
// a catalog that ignores the scan hint and on one that prunes by its
// window, and random plain SELECT lists project them as the reference
// does, from full rows and from the narrow rows a projecting provider
// hands back, over one table and over a T4-shaped self-join.
func TestExecutorMatchesReferenceOnRandomPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	schema := telco.MustSchema("T", []telco.Field{
		{Name: "id", Kind: telco.KindInt},
		{Name: "a", Kind: telco.KindInt},
		{Name: "b", Kind: telco.KindInt},
		{Name: "c", Kind: telco.KindInt},
		{Name: "ts", Kind: telco.KindTime},
	})
	tab := telco.NewTable(schema)
	times := refTimes(rng, 200)
	rows := make([]map[string]int64, len(times))
	for i := range rows {
		r := map[string]int64{
			"id": int64(i),
			"a":  int64(rng.Intn(20)),
			"b":  int64(rng.Intn(20)),
			"c":  int64(rng.Intn(20)),
			"ts": times[i],
		}
		rows[i] = r
		tab.Append(telco.Record{telco.Int(r["id"]), telco.Int(r["a"]), telco.Int(r["b"]), telco.Int(r["c"]), refValue(r, "ts")})
	}
	engs := []*Engine{NewEngine(fullScan{"T": tab}), NewEngine(MemCatalog{"T": tab})}

	for trial := 0; trial < 600; trial++ {
		pred := randPred(rng, 3, times)
		sel := randSelect(rng, []string{""})
		sql := "SELECT " + strings.Join(sel.sql, ", ") + " FROM T WHERE " + pred.sql() + " ORDER BY id"
		var want [][]telco.Value
		for _, r := range rows { // already in id order
			if !pred.eval(r) {
				continue
			}
			out := make([]telco.Value, len(sel.cols))
			for j, bc := range sel.cols {
				out[j] = refValue(r, refAllCols[bc[1]])
			}
			want = append(want, out)
		}
		for i, eng := range engs {
			rs, err := eng.Query(sql)
			if err != nil {
				t.Fatalf("trial %d, catalog %d: %s: %v", trial, i, sql, err)
			}
			checkRows(t, fmt.Sprintf("trial %d, catalog %d: %s", trial, i, sql), rs, sel.names, want)
		}
	}

	// SELECT lists alone, from full rows and from narrow ones, over the
	// table and over its self-join.
	narrow := NewEngine(aggCatalog{"T": tab})
	for trial := 0; trial < 200; trial++ {
		join := trial%2 == 1
		quals := []string{""}
		sql := " FROM T WHERE a < 12 ORDER BY id"
		if join {
			quals = []string{"l", "r"}
			sql = " FROM T l JOIN T r ON l.a = r.a WHERE l.b < r.b AND l.id < 40 ORDER BY l.id, r.id"
		}
		sel := randSelect(rng, quals)
		sql = "SELECT " + strings.Join(sel.sql, ", ") + sql
		var want [][]telco.Value
		emit := func(side ...map[string]int64) {
			out := make([]telco.Value, len(sel.cols))
			for j, bc := range sel.cols {
				out[j] = refValue(side[bc[0]], refAllCols[bc[1]])
			}
			want = append(want, out)
		}
		for _, l := range rows {
			if !join {
				if l["a"] < 12 {
					emit(l)
				}
				continue
			}
			for _, r := range rows {
				if l["a"] == r["a"] && l["b"] < r["b"] && l["id"] < 40 {
					emit(l, r)
				}
			}
		}
		for name, e := range map[string]*Engine{"full": engs[0], "narrow": narrow} {
			rs, err := e.Query(sql)
			if err != nil {
				t.Fatalf("trial %d (%s): %s: %v", trial, name, sql, err)
			}
			checkRows(t, fmt.Sprintf("trial %d (%s): %s", trial, name, sql), rs, sel.names, want)
		}
	}
}

// TestAggregatesMatchReferenceOnRandomGroups: GROUP BY over integer keys —
// a few small ones, negative ones, sparse ones far apart, ones spread wider
// than any dense table, and a null key — and over a time key matches the
// reference on the row path, and on the pushdown path where the statement is
// eligible. COUNT, SUM, MIN and MAX run over an integer column that holds
// nulls in some tables and none in others, one that never does, and a time
// column, so a storage fold takes its null-free loops and its general one;
// COUNT, MIN and MAX also run over a string column with blank (null) rows.
func TestAggregatesMatchReferenceOnRandomGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := telco.MustSchema("G", []telco.Field{
		{Name: "k", Kind: telco.KindInt},
		{Name: "v", Kind: telco.KindInt},
		{Name: "w", Kind: telco.KindInt},
		{Name: "at", Kind: telco.KindTime},
		{Name: "s", Kind: telco.KindString},
	})
	keyings := map[string]func() int64{
		"small":    func() int64 { return int64(rng.Intn(10)) },
		"negative": func() int64 { return int64(rng.Intn(101) - 50) },
		"sparse":   func() int64 { return int64(rng.Intn(8)) * (1 << 40) * int64(1-2*rng.Intn(2)) },
		"wide":     func() int64 { return int64(rng.Intn(400000)) - 100000 },
	}
	// agg is the reference state of one aggregated column within a group.
	type agg struct {
		n        int64
		sum      int64
		min, max telco.Value
	}
	add := func(a *agg, v telco.Value) {
		if v.IsNull() {
			return
		}
		if a.n == 0 || v.Compare(a.min) < 0 {
			a.min = v
		}
		if a.n == 0 || v.Compare(a.max) > 0 {
			a.max = v
		}
		a.n++
		if v.Kind() == telco.KindInt {
			a.sum += v.Int64()
		}
	}
	// sum renders a reference SUM, NULL over no value.
	sum := func(a *agg) telco.Value {
		if a.n == 0 {
			return telco.Null
		}
		return telco.Int(a.sum)
	}
	for name, key := range keyings {
		for _, nulls := range []bool{true, false} {
			tab := telco.NewTable(schema)
			type group struct{ rows, v, w, at, s agg }
			byInt, byTime := map[string]*group{}, map[string]*group{}
			var intKeys, timeKeys []telco.Value
			for i := 0; i < 500; i++ {
				k, v, w := telco.Int(key()), telco.Int(int64(rng.Intn(1000))), telco.Int(rng.Int63()-rng.Int63())
				at := telco.Time(time.Unix(1453075200+int64(rng.Intn(48))*1800, 0))
				if i%97 == 0 {
					k = telco.Null
				}
				if nulls && i%13 == 0 {
					v = telco.Null
				}
				if nulls && i%17 == 0 {
					at = telco.Null
				}
				str := telco.String([]string{"a", "mm", "zz"}[rng.Intn(3)])
				if i%7 == 0 {
					str = telco.Null
				}
				tab.Append(telco.Record{k, v, w, at, str})
				for _, by := range []struct {
					m    map[string]*group
					keys *[]telco.Value
					key  telco.Value
				}{{byInt, &intKeys, k}, {byTime, &timeKeys, at}} {
					g := by.m[by.key.Format()]
					if g == nil {
						g = &group{}
						by.m[by.key.Format()] = g
						*by.keys = append(*by.keys, by.key)
					}
					g.rows.n++
					add(&g.v, v)
					add(&g.w, w)
					add(&g.at, at)
					add(&g.s, str)
				}
			}
			for _, keys := range [][]telco.Value{intKeys, timeKeys} {
				sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
			}
			type query struct {
				sql        string
				on, byTime bool // pushdown; grouped by the time column
			}
			const aggs = `COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), COUNT(w), SUM(w), MIN(w), MAX(w), COUNT(at), MIN(at), MAX(at), COUNT(s), MIN(s), MAX(s)`
			var queries []query
			for _, on := range []bool{false, true} {
				queries = append(queries,
					query{`SELECT k, ` + aggs + ` FROM G GROUP BY k ORDER BY k`, on, false},
					query{`SELECT at, ` + aggs + ` FROM G GROUP BY at ORDER BY at`, on, true})
			}
			for _, q := range queries {
				var rs *ResultSet
				var err error
				if q.on {
					rs, err = NewEngine(aggCatalog{"G": tab}).Query(q.sql)
				} else {
					rs, err = NewEngine(MemCatalog{"G": tab}).Query(q.sql)
				}
				if err != nil {
					t.Fatal(err)
				}
				keys, groups := intKeys, byInt
				if q.byTime {
					keys, groups = timeKeys, byTime
				}
				if len(rs.Rows) != len(keys) {
					t.Fatalf("%s (nulls %v): %s: groups = %d, want %d", name, nulls, q.sql, len(rs.Rows), len(keys))
				}
				for i, row := range rs.Rows {
					g := groups[keys[i].Format()]
					want := []telco.Value{keys[i], telco.Int(g.rows.n),
						telco.Int(g.v.n), sum(&g.v), g.v.min, g.v.max,
						telco.Int(g.w.n), sum(&g.w), g.w.min, g.w.max,
						telco.Int(g.at.n), g.at.min, g.at.max,
						telco.Int(g.s.n), g.s.min, g.s.max}
					for c := range want {
						if row[c].Kind() != want[c].Kind() || row[c].Format() != want[c].Format() {
							t.Fatalf("%s (nulls %v): %s: group %s: column %d = %v %q, want %v %q", name, nulls, q.sql,
								keys[i].Format(), c, row[c].Kind(), row[c].Format(), want[c].Kind(), want[c].Format())
						}
					}
				}
			}
			// AVG keeps the row path: its float mean of the reference sum.
			rs, err := NewEngine(MemCatalog{"G": tab}).Query(`SELECT k, AVG(v) FROM G GROUP BY k ORDER BY k`)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range rs.Rows {
				g := byInt[intKeys[i].Format()]
				if g.v.n == 0 {
					if !row[1].IsNull() {
						t.Errorf("%s: group %s: avg %v over no value", name, intKeys[i].Format(), row[1])
					}
					continue
				}
				if got, want := row[1].Float64(), float64(g.v.sum)/float64(g.v.n); got != want {
					t.Errorf("%s: group %s: avg %v, want %v", name, intKeys[i].Format(), got, want)
				}
			}
		}
	}
}
