package sqlengine

import (
	"context"
	"sort"
	"strings"
	"testing"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// aggCatalog wraps the shared test tables in providers that implement
// Aggregator the way a real storage layer must: the spec is authoritative,
// so Window, RequireTS and every predicate are applied exactly during the
// fold. Row scans behave like MemCatalog.
type aggCatalog map[string]*telco.Table

func (c aggCatalog) Table(name string) (Provider, error) {
	t, ok := c[name]
	if !ok {
		return nil, &testUnknownTable{name}
	}
	return aggProvider{t}, nil
}

type testUnknownTable struct{ name string }

func (e *testUnknownTable) Error() string { return "test: unknown table " + e.name }

type aggProvider struct{ t *telco.Table }

func (p aggProvider) Schema() *telco.Schema { return p.t.Schema }

// Scan honors the spec's projection the way columnar storage does: under a
// column list the batches are narrow — the referenced columns only, in
// schema order, declared through the batch schema — so every parity test
// below also checks that the engine binds column references to the layout
// the provider hands back.
func (p aggProvider) Scan(ctx context.Context, hint ScanHint, fn func(*telco.Table) error) error {
	return memProvider{p.t}.Scan(ctx, hint, func(t *telco.Table) error {
		if hint.Spec == nil || hint.Spec.Columns == nil {
			return fn(t)
		}
		var cols []int
		for i, f := range t.Schema.Fields {
			for _, name := range hint.Spec.Referenced() {
				if name == f.Name {
					cols = append(cols, i)
					break
				}
			}
		}
		return fn(&telco.Table{Schema: t.Schema.Project(cols), Rows: telco.ProjectRows(t.Rows, cols)})
	})
}

func (p aggProvider) Aggregate(_ context.Context, _ ScanHint, spec *scanspec.Spec) ([]scanspec.Partial, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	schema := p.t.Schema
	groups := make(map[string]*scanspec.Partial)
	var order []string
	vals := make([]telco.Value, len(spec.Aggs))
	for _, r := range p.t.Rows {
		if !specKeeps(spec, schema, r) {
			continue
		}
		g := telco.Null
		if spec.GroupBy != "" {
			g = r[schema.FieldIndex(spec.GroupBy)]
		}
		key := g.Format()
		part := groups[key]
		if part == nil {
			part = spec.NewPartial(g)
			groups[key] = part
			order = append(order, key)
		}
		for i, a := range spec.Aggs {
			vals[i] = telco.Null
			if a.Col != "" {
				vals[i] = r[schema.FieldIndex(a.Col)]
			}
		}
		spec.AddRow(part, vals)
	}
	sort.Strings(order)
	out := make([]scanspec.Partial, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out, nil
}

// specKeeps reports whether the spec, applied exactly, keeps row r of
// schema: its window and RequireTS, then every predicate.
func specKeeps(spec *scanspec.Spec, schema *telco.Schema, r telco.Record) bool {
	if tsIdx := schema.FieldIndex(telco.AttrTS); tsIdx >= 0 && !r[tsIdx].IsNull() {
		if !spec.Window.Contains(r[tsIdx].Time().Unix()) {
			return false
		}
	} else if spec.RequireTS {
		return false
	}
	for _, pd := range spec.Preds {
		if !pd.Eval(r[schema.FieldIndex(pd.Col)]) {
			return false
		}
	}
	return true
}

// pushdownCatalog mirrors testCatalog's tables behind Aggregator providers.
func pushdownCatalog() aggCatalog {
	mem := testCatalog()
	return aggCatalog{"CDR": mem["CDR"], "NMS": mem["NMS"]}
}

// parityQueries are aggregate statements that must produce identical
// results through the partial-aggregate fast path and the row path.
var parityQueries = []string{
	`SELECT COUNT(*) FROM CDR`,
	`SELECT COUNT(*), SUM(duration), MIN(duration), MAX(duration) FROM CDR`,
	`SELECT COUNT(caller) FROM CDR`,
	`SELECT SUM(upflux) FROM CDR WHERE call_type='DATA'`,
	`SELECT COUNT(*) FROM CDR WHERE duration>=60`,
	`SELECT COUNT(*) FROM CDR WHERE cell_id!=1 AND duration<100`,
	`SELECT COUNT(*) FROM CDR WHERE ts>='201601221530' AND ts<'201601221600'`,
	`SELECT COUNT(*), MAX(duration) FROM CDR WHERE ts='2016012215'`,
	`SELECT COUNT(*) FROM CDR WHERE ts BETWEEN '201601221530' AND '201601221610'`,
	`SELECT MIN(caller), MAX(caller) FROM CDR`,
	`SELECT SUM(duration) FROM CDR WHERE duration>1000`, // empty: NULL sum
	`SELECT COUNT(*) FROM CDR WHERE caller='nobody'`,    // empty: zero count
	`SELECT cell_id, COUNT(*) FROM CDR GROUP BY cell_id ORDER BY cell_id`,
	`SELECT cell_id, COUNT(*), SUM(duration) FROM CDR GROUP BY cell_id ORDER BY cell_id DESC`,
	`SELECT call_type, MIN(duration), MAX(upflux) FROM CDR GROUP BY call_type ORDER BY call_type`,
	`SELECT cell_id, COUNT(*) FROM CDR WHERE call_type='VOICE' GROUP BY cell_id ORDER BY cell_id LIMIT 2`,
	`SELECT COUNT(*) FROM NMS WHERE val<=3`,
}

func TestAggregatePushdownParity(t *testing.T) {
	for _, q := range parityQueries {
		fast := NewEngine(pushdownCatalog())
		slow := NewEngine(pushdownCatalog())
		slow.DisablePushdown = true
		got, err := fast.Query(q)
		if err != nil {
			t.Fatalf("%s (pushdown): %v", q, err)
		}
		want, err := slow.Query(q)
		if err != nil {
			t.Fatalf("%s (row path): %v", q, err)
		}
		assertSameResult(t, q, got, want)
	}
}

// TestAggregatePushdownTaken proves the fast path actually runs for
// eligible statements (rather than both sides silently using rows): the
// provider counts Aggregate calls.
func TestAggregatePushdownTaken(t *testing.T) {
	calls := 0
	cat := countingCatalog{inner: pushdownCatalog(), calls: &calls}
	if _, err := NewEngine(cat).Query(`SELECT COUNT(*) FROM CDR WHERE duration>=60`); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("Aggregate calls = %d, want 1", calls)
	}
	// An ineligible statement (AVG cannot push down) must not call it.
	calls = 0
	if _, err := NewEngine(cat).Query(`SELECT AVG(duration) FROM CDR`); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("Aggregate calls for AVG = %d, want 0", calls)
	}
}

type countingCatalog struct {
	inner aggCatalog
	calls *int
}

func (c countingCatalog) Table(name string) (Provider, error) {
	p, err := c.inner.Table(name)
	if err != nil {
		return nil, err
	}
	return countingProvider{p.(aggProvider), c.calls}, nil
}

type countingProvider struct {
	aggProvider
	calls *int
}

func (p countingProvider) Aggregate(ctx context.Context, hint ScanHint, spec *scanspec.Spec) ([]scanspec.Partial, error) {
	*p.calls++
	return p.aggProvider.Aggregate(ctx, hint, spec)
}

func assertSameResult(t *testing.T, q string, got, want *ResultSet) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: cols = %v, want %v", q, got.Cols, want.Cols)
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("%s: cols = %v, want %v", q, got.Cols, want.Cols)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: rows = %d, want %d", q, len(got.Rows), len(want.Rows))
	}
	for r := range got.Rows {
		for c := range got.Rows[r] {
			g, w := got.Rows[r][c], want.Rows[r][c]
			if g.IsNull() != w.IsNull() || g.Kind() != w.Kind() || g.Format() != w.Format() {
				t.Errorf("%s: row %d col %d = %s (%v), want %s (%v)",
					q, r, c, g.Format(), g.Kind(), w.Format(), w.Kind())
			}
		}
	}
}

// TestAggPlanEligibility pins the statements the compiler must refuse to
// answer from partials (they would break row-path semantics).
func TestAggPlanEligibility(t *testing.T) {
	cat := pushdownCatalog()
	schema := cat["CDR"].Schema
	b := binding{name: "CDR", schema: schema}
	eligible := []string{
		`SELECT COUNT(*) FROM CDR`,
		`SELECT cell_id, COUNT(*) FROM CDR GROUP BY cell_id ORDER BY cell_id`,
		`SELECT MIN(duration) FROM CDR WHERE ts>'2016' AND cell_id=1`,
		`SELECT COUNT(*) FROM CDR WHERE duration BETWEEN 10 AND 100`,
	}
	for _, q := range eligible {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := compileAggPlan(stmt, b, decomposeWhere(stmt.Where, b.name, b.schema)); !ok {
			t.Errorf("%s: expected eligible for aggregate pushdown", q)
		}
	}
	ineligible := []string{
		`SELECT AVG(duration) FROM CDR`,                                                       // AVG not pushable
		`SELECT COUNT(DISTINCT caller) FROM CDR`,                                              // DISTINCT arg
		`SELECT SUM(duration+1) FROM CDR`,                                                     // non-bare arg
		`SELECT COUNT(*) FROM CDR WHERE caller LIKE 'a%'`,                                     // undecomposable WHERE
		`SELECT COUNT(*) FROM CDR WHERE duration>60 OR upflux>0`,                              // disjunction
		`SELECT cell_id, COUNT(*) FROM CDR GROUP BY cell_id`,                                  // grouped w/o ORDER BY group
		`SELECT cell_id, COUNT(*) FROM CDR GROUP BY cell_id ORDER BY COUNT(*)`,                // ORDER BY non-group
		`SELECT cell_id, caller, COUNT(*) FROM CDR GROUP BY cell_id, caller ORDER BY cell_id`, // two keys
		`SELECT COUNT(*) FROM CDR GROUP BY cell_id HAVING COUNT(*)>1 ORDER BY cell_id`,        // HAVING
		`SELECT COUNT(*) FROM CDR WHERE ts!='2016'`,                                           // uncapturable ts op
	}
	for _, q := range ineligible {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := compileAggPlan(stmt, b, decomposeWhere(stmt.Where, b.name, b.schema)); ok {
			t.Errorf("%s: expected ineligible for aggregate pushdown", q)
		}
	}
}

// TestCompileScanSpecShape pins the WHERE decomposition: which conjuncts
// become predicates, which become the exact time window, and which columns
// a projection needs.
func TestCompileScanSpecShape(t *testing.T) {
	cat := pushdownCatalog()
	b := binding{name: "CDR", schema: cat["CDR"].Schema}
	stmt, err := Parse(`SELECT caller FROM CDR WHERE duration>=60 AND ts>='201601221530' AND caller!='x'`)
	if err != nil {
		t.Fatal(err)
	}
	spec := compileScanSpec(stmt, b, decomposeWhere(stmt.Where, b.name, b.schema))
	if spec == nil {
		t.Fatal("spec = nil")
	}
	cols := spec.Referenced()
	wantCols := map[string]bool{"caller": true, "duration": true, "ts": true}
	if len(cols) != len(wantCols) {
		t.Fatalf("referenced = %v", cols)
	}
	for _, c := range cols {
		if !wantCols[c] {
			t.Fatalf("referenced = %v", cols)
		}
	}
	if len(spec.Preds) != 2 {
		t.Fatalf("preds = %v", spec.Preds)
	}
	if !spec.RequireTS || spec.Window == nil || !spec.Window.HasFrom || spec.Window.HasTo {
		t.Fatalf("window = %+v requireTS=%v", spec.Window, spec.RequireTS)
	}
	if spec.Window.From != t0.Unix() {
		t.Fatalf("window.From = %d, want %d", spec.Window.From, t0.Unix())
	}

	// An OR disables predicate capture but projection survives.
	stmt, err = Parse(`SELECT caller FROM CDR WHERE duration>=60 OR upflux>0`)
	if err != nil {
		t.Fatal(err)
	}
	spec = compileScanSpec(stmt, b, decomposeWhere(stmt.Where, b.name, b.schema))
	if spec == nil {
		t.Fatal("spec = nil")
	}
	if len(spec.Preds) != 0 || spec.RequireTS || spec.Window != nil {
		t.Fatalf("OR spec = %+v", spec)
	}
	if got := spec.Referenced(); len(got) != 3 { // caller, duration, upflux
		t.Fatalf("referenced = %v", got)
	}
}

// TestExplainShowsPushdown asserts EXPLAIN surfaces the pushdown decision
// for Aggregator-backed catalogs.
func TestExplainShowsPushdown(t *testing.T) {
	eng := NewEngine(pushdownCatalog())
	rs, err := eng.Query(`EXPLAIN SELECT cell_id, COUNT(*) FROM CDR WHERE duration>=60 GROUP BY cell_id ORDER BY cell_id`)
	if err != nil {
		t.Fatal(err)
	}
	var found string
	for _, r := range rs.Rows {
		if strings.HasPrefix(r[0].Str(), "PUSHDOWN aggregate:") {
			found = r[0].Str()
		}
	}
	if found == "" {
		t.Fatalf("no PUSHDOWN aggregate line in %v", rs.Rows)
	}
	for _, frag := range []string{"COUNT(*)", "group cell_id", "duration>=60"} {
		if !strings.Contains(found, frag) {
			t.Errorf("line %q lacks %q", found, frag)
		}
	}

	rs, err = eng.Query(`EXPLAIN SELECT caller FROM CDR WHERE duration>=60`)
	if err != nil {
		t.Fatal(err)
	}
	foundScan := false
	for _, r := range rs.Rows {
		if strings.HasPrefix(r[0].Str(), "PUSHDOWN scan:") {
			foundScan = true
		}
	}
	if !foundScan {
		t.Fatalf("no PUSHDOWN scan line in %v", rs.Rows)
	}
}

// TestRowPathSpecIsAdvisory runs non-aggregate statements whose WHERE only
// partially decomposes: the provider pre-filters on the captured conjuncts
// and the engine must still apply the rest.
func TestRowPathSpecIsAdvisory(t *testing.T) {
	for _, q := range []string{
		`SELECT caller FROM CDR WHERE duration>=60 AND caller LIKE 'a%' ORDER BY caller`,
		`SELECT caller, duration FROM CDR WHERE cell_id=2 ORDER BY caller`,
		`SELECT caller FROM CDR WHERE ts>='201601221540' ORDER BY caller`,
	} {
		fast := NewEngine(pushdownCatalog())
		slow := NewEngine(pushdownCatalog())
		slow.DisablePushdown = true
		got, err := fast.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := slow.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		assertSameResult(t, q, got, want)
	}
}

// narrowScanQueries take the row path (no aggregate plan applies, or it is
// a join) but still ship a column projection, so the narrow-batch provider
// hands the engine rows in a layout other than the table's.
var narrowScanQueries = []string{
	`SELECT upflux, downflux FROM CDR WHERE ts>='201601221530' AND ts<'201601221700'`,
	`SELECT caller, duration FROM CDR WHERE duration>=60 ORDER BY caller, duration`,
	`SELECT downflux, caller FROM CDR WHERE call_type='DATA' ORDER BY downflux DESC`,
	`SELECT * FROM CDR WHERE cell_id=2`,
	`SELECT AVG(duration), COUNT(*) FROM CDR WHERE call_type='VOICE'`,
	`SELECT call_type, AVG(upflux) FROM CDR GROUP BY call_type ORDER BY call_type`,
	`SELECT DISTINCT caller FROM CDR ORDER BY caller`,
	`SELECT caller FROM CDR WHERE cell_id IN (SELECT cell_id FROM NMS WHERE val > 4) ORDER BY caller`,
	`SELECT DISTINCT a.caller FROM CDR a JOIN CDR b ON a.caller = b.caller
		WHERE a.cell_id != b.cell_id ORDER BY a.caller`,
	`SELECT a.caller, b.val FROM CDR a JOIN NMS b ON a.cell_id = b.cell_id
		WHERE b.val > 0 ORDER BY a.caller, b.val`,
	`SELECT * FROM CDR a JOIN NMS b ON a.cell_id = b.cell_id ORDER BY a.caller, b.val LIMIT 3`,
	`SELECT COUNT(*) FROM CDR a JOIN NMS b ON a.cell_id = b.cell_id WHERE a.duration > b.val`,
}

// TestNarrowScanParity runs each statement against a provider that honors
// the projection (narrow batches) and with pushdown disabled (full rows):
// binding column references to the batch layout must not change an answer.
func TestNarrowScanParity(t *testing.T) {
	for _, q := range narrowScanQueries {
		narrow := NewEngine(pushdownCatalog())
		full := NewEngine(pushdownCatalog())
		full.DisablePushdown = true
		got, err := narrow.Query(q)
		if err != nil {
			t.Fatalf("%s (narrow): %v", q, err)
		}
		want, err := full.Query(q)
		if err != nil {
			t.Fatalf("%s (full): %v", q, err)
		}
		assertSameResult(t, q, got, want)
	}
}

// widthCatalog records the width of every batch its providers emit.
type widthCatalog struct {
	inner  aggCatalog
	widths *[]int
}

func (c widthCatalog) Table(name string) (Provider, error) {
	p, err := c.inner.Table(name)
	if err != nil {
		return nil, err
	}
	return widthProvider{p, c.widths}, nil
}

type widthProvider struct {
	Provider
	widths *[]int
}

func (p widthProvider) Scan(ctx context.Context, hint ScanHint, fn func(*telco.Table) error) error {
	return p.Provider.Scan(ctx, hint, func(t *telco.Table) error {
		*p.widths = append(*p.widths, t.Schema.NumFields())
		return fn(t)
	})
}

// TestJoinSidesScanProjected pins the T4 shape: each side of a join gets a
// projection-only spec, so the self-join scans caller, cell_id and ts — not
// the table's full width — on both sides.
func TestJoinSidesScanProjected(t *testing.T) {
	var widths []int
	eng := NewEngine(widthCatalog{pushdownCatalog(), &widths})
	_, err := eng.Query(`SELECT DISTINCT a.caller FROM CDR a JOIN CDR b ON a.caller = b.caller
		WHERE a.cell_id != b.cell_id AND a.ts >= '2016' AND b.ts >= '2016' ORDER BY a.caller`)
	if err != nil {
		t.Fatal(err)
	}
	if len(widths) != 2 || widths[0] != 3 || widths[1] != 3 {
		t.Fatalf("join sides scanned at widths %v, want [3 3] (caller, cell_id, ts)", widths)
	}
}
