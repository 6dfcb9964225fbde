package sqlengine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// batchCatalog serves the shared test tables through providers that also
// hand out column batches, as a storage layer behind the row pushdown
// must: the spec decides rows exactly, and each batch holds one kept row
// narrowed to the spec's referenced columns — so an answer spans many
// batches and its row order shows.
type batchCatalog map[string]*telco.Table

func (c batchCatalog) Table(name string) (Provider, error) {
	t, ok := c[name]
	if !ok {
		return nil, &testUnknownTable{name}
	}
	return batchProvider{aggProvider{t}}, nil
}

type batchProvider struct{ aggProvider }

func (p batchProvider) ScanBatches(_ context.Context, _ ScanHint, spec *scanspec.Spec, fn func(*telco.Schema, *telco.Batch) error) error {
	schema := p.t.Schema
	var cols []int
	if spec.Columns != nil {
		ref := spec.Referenced()
		for i, f := range schema.Fields {
			if slices.Contains(ref, f.Name) {
				cols = append(cols, i)
			}
		}
	}
	layout := schema.Project(cols)
	for _, r := range p.t.Rows {
		if !specKeeps(spec, schema, r) {
			continue
		}
		b := new(telco.Batch)
		b.SetRows(schema, cols, []telco.Record{r}, true)
		if err := fn(layout, b); err != nil {
			return err
		}
	}
	return nil
}

// rowPlanQueries are plain SELECTs the row pushdown answers.
var rowPlanQueries = []string{
	`SELECT * FROM CDR`,
	`SELECT caller FROM CDR`,
	`SELECT duration, caller, duration FROM CDR WHERE duration >= 60`,
	`SELECT c.caller AS who, c.ts FROM CDR c WHERE c.call_type = 'VOICE'`,
	`SELECT ts, * FROM NMS WHERE ts >= '201601221531' AND val > 0`,
	`SELECT caller, cell_id FROM CDR WHERE ts < '201601221540' AND cell_id BETWEEN 1 AND 2`,
	`SELECT caller FROM CDR WHERE ts >= '2017'`,
	`SELECT upflux, downflux FROM CDR WHERE caller = 'nobody'`,
}

// TestRowPlanEquivalence: every rowPlanQueries statement is answered from
// the provider's column batches when the caller reads them — EXPLAIN
// ANALYZE under QueryBatches names it, and QueryBatches hands the batches
// back — and the batches' rows are the row path's over the same tables, in
// the same order. Query keeps the record path: its answer is in Rows and
// its EXPLAIN ANALYZE names no row pushdown.
func TestRowPlanEquivalence(t *testing.T) {
	mem := testCatalog()
	pushed := NewEngine(batchCatalog{"CDR": mem["CDR"], "NMS": mem["NMS"]})
	ref := NewEngine(mem)
	ctx := context.Background()
	for _, q := range rowPlanQueries {
		plan, err := pushed.QueryBatches(ctx, "EXPLAIN ANALYZE "+q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !namesRowPushdown(plan) {
			t.Errorf("%s: report names no row pushdown: %v", q, plan.Rows)
		}
		if plan, err = pushed.Query("EXPLAIN ANALYZE " + q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if namesRowPushdown(plan) {
			t.Errorf("%s: report under Query names the row pushdown: %v", q, plan.Rows)
		}
		batches, err := pushed.QueryBatches(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if batches.Rows != nil || batches.Batches == nil {
			t.Errorf("%s: answer holds %d rows in Rows, batches %v; want none and batches", q, len(batches.Rows), batches.Batches != nil)
		}
		assertSameResult(t, q, &ResultSet{Cols: batches.Cols, Rows: batchRows(batches)}, want)
		got, err := pushed.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got.Batches != nil {
			t.Errorf("%s: Query left the answer in batches", q)
		}
		assertSameResult(t, q, got, want)
	}
}

func namesRowPushdown(plan *ResultSet) bool {
	return slices.ContainsFunc(plan.Rows, func(r []telco.Value) bool { return strings.HasPrefix(r[0].Str(), "row pushdown: ") })
}

// batchRows turns an answer held in batches into rows of values, output
// column j of each from the batch's column Pick[j].
func batchRows(rs *ResultSet) [][]telco.Value {
	var rows [][]telco.Value
	for _, b := range rs.Batches {
		for _, r := range b.AppendRecords(nil) {
			row := make([]telco.Value, len(rs.Pick))
			for j, k := range rs.Pick {
				row[j] = r[k]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TestRowPlanRefusals: statements whose answer is not the scan's rows in
// scan order keep the record path, and so does every statement under
// DisablePushdown.
func TestRowPlanRefusals(t *testing.T) {
	mem := testCatalog()
	cat := batchCatalog{"CDR": mem["CDR"], "NMS": mem["NMS"]}
	for _, q := range []string{
		`SELECT caller FROM CDR ORDER BY caller`,
		`SELECT caller FROM CDR LIMIT 2`,
		`SELECT DISTINCT caller FROM CDR`,
		`SELECT COUNT(*) FROM CDR`,
		`SELECT caller FROM CDR WHERE duration >= 60 OR cell_id = 2`,
		`SELECT caller FROM CDR WHERE caller LIKE 'a%'`,
		`SELECT duration + 1 FROM CDR`,
		`SELECT a.caller FROM CDR a JOIN CDR b ON a.caller = b.caller`,
		`SELECT caller FROM CDR WHERE cell_id IN (SELECT cell_id FROM NMS)`,
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		eng := NewEngine(cat)
		sc, providers, cjs, err := eng.bindTables(stmt)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, _, ok := eng.rowPushdown(stmt, sc.bindings[0], providers[0], cjs[0]); ok {
			t.Errorf("%s: taken by the row pushdown", q)
		}
		rs, err := eng.QueryBatches(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rs.Batches != nil {
			t.Errorf("%s: answered in batches", q)
		}
	}
	eng := NewEngine(cat)
	eng.DisablePushdown = true
	if rs, err := eng.QueryBatches(context.Background(), `SELECT * FROM CDR`); err != nil || rs.Batches != nil {
		t.Errorf("DisablePushdown: batches %v, err %v", rs.Batches != nil, err)
	}
}
