package sqlengine

import (
	"context"
	"fmt"
	"time"

	"spate/internal/telco"
)

// ExplainProfiler is implemented by catalogs whose storage layer can
// account per-query scan cost. EXPLAIN ANALYZE asks the catalog for a
// profiled context before executing and renders the returned report lines
// after; catalogs without one (e.g. MemCatalog) analyze with rows and wall
// time only.
type ExplainProfiler interface {
	// WithProfile returns a context under which scans accrue cost, and a
	// render function producing the report lines once execution finishes.
	WithProfile(ctx context.Context) (context.Context, func() []string)
}

// explain serves EXPLAIN and EXPLAIN ANALYZE: the plan alone, or the plan
// plus an execution report (rows, wall time, the row pushdown when it
// answered, storage profile). The plan names no path a catalog alone
// decides: it reads the same over every catalog whose answers must agree
// (an engine, a cluster coordinator), and only some hand out column
// batches. The report's run takes the row pushdown only when batches is
// set, as the statement itself would.
func (e *Engine) explain(ctx context.Context, stmt *SelectStmt, batches bool) (*ResultSet, error) {
	sc, providers, cjs, err := e.bindTables(stmt)
	if err != nil {
		return nil, err
	}
	lines := planLines(stmt, cjs)
	lines = append(lines, e.pushdownLines(stmt, sc.bindings[0], providers[0], cjs[0])...)
	rs := &ResultSet{Cols: []string{"plan"}}
	if stmt.Analyze {
		inner := *stmt
		inner.Explain, inner.Analyze = false, false
		var render func() []string
		if pp, ok := e.cat.(ExplainProfiler); ok {
			ctx, render = pp.WithProfile(ctx)
		}
		t0 := time.Now()
		res, err := e.run(ctx, &inner, batches)
		if err != nil {
			return nil, err
		}
		lines = append(lines,
			fmt.Sprintf("rows: %d", res.rowCount()),
			fmt.Sprintf("time: %.3f ms", float64(time.Since(t0))/float64(time.Millisecond)),
		)
		if res.Batches != nil {
			lines = append(lines, fmt.Sprintf("row pushdown: %d column batches, no records", len(res.Batches)))
		}
		if render != nil {
			lines = append(lines, render()...)
		}
	}
	for _, ln := range lines {
		rs.Rows = append(rs.Rows, []telco.Value{telco.String(ln)})
	}
	return rs, nil
}

// pushdownLines reports what the columnar storage layer will consume for a
// single-table statement over provider p, bound as b with its WHERE clause
// decomposed into cj. Lines appear only for providers that implement
// Aggregator (i.e. spec-aware storage): either the whole aggregate is
// answered from partials, or the scan ships a column/predicate spec.
// Catalogs without pushdown-capable storage keep their plans unchanged.
func (e *Engine) pushdownLines(stmt *SelectStmt, b binding, p Provider, cj conjuncts) []string {
	if e.DisablePushdown || len(stmt.Joins) > 0 {
		return nil
	}
	if _, isAgg := p.(Aggregator); !isAgg {
		return nil
	}
	if plan, ok := compileAggPlan(stmt, b, cj); ok {
		return []string{"PUSHDOWN aggregate: " + plan.spec.String()}
	}
	if spec := compileScanSpec(stmt, b, cj); spec != nil {
		return []string{"PUSHDOWN scan: " + spec.String()}
	}
	return nil
}

// planLines renders the statement's evaluation plan, one step per line, in
// execution order; cjs is the WHERE clause decomposed for each table, FROM
// first. The scan lines surface the planner's only real decision: the ts
// window each table's scan is pushed down, with a side no conjunct bounds
// left out.
func planLines(stmt *SelectStmt, cjs []conjuncts) []string {
	var lines []string
	scanLine := func(tr TableRef, cj conjuncts) string {
		s := "SCAN " + tr.Name
		if tr.Alias != "" {
			s += " AS " + tr.Alias
		}
		if w := cj.win; w != nil {
			const layout = "2006-01-02T15:04:05"
			s += " [ts pushdown "
			if w.HasFrom {
				s += time.Unix(w.From, 0).UTC().Format(layout) + " <= "
			}
			s += "ts"
			if w.HasTo {
				s += " < " + time.Unix(w.To, 0).UTC().Format(layout)
			}
			s += "]"
		} else {
			s += " [full scan]"
		}
		return s
	}
	lines = append(lines, scanLine(stmt.From, cjs[0]))
	for i, j := range stmt.Joins {
		lines = append(lines, "JOIN "+scanLine(j.Table, cjs[i+1])[len("SCAN "):]+
			" ON "+j.On.exprString())
	}
	if stmt.Where != nil {
		lines = append(lines, "FILTER "+stmt.Where.exprString())
	}
	if len(stmt.GroupBy) > 0 || containsAgg(stmt) {
		s := "AGGREGATE"
		if len(stmt.GroupBy) > 0 {
			s += " GROUP BY"
			for i, g := range stmt.GroupBy {
				if i > 0 {
					s += ","
				}
				s += " " + g.exprString()
			}
		}
		lines = append(lines, s)
	}
	if stmt.Having != nil {
		lines = append(lines, "HAVING "+stmt.Having.exprString())
	}
	if stmt.Distinct {
		lines = append(lines, "DISTINCT")
	}
	if len(stmt.OrderBy) > 0 {
		s := "ORDER BY"
		for i, k := range stmt.OrderBy {
			if i > 0 {
				s += ","
			}
			s += " " + k.Expr.exprString()
			if k.Desc {
				s += " DESC"
			}
		}
		lines = append(lines, s)
	}
	if stmt.Limit >= 0 {
		lines = append(lines, fmt.Sprintf("LIMIT %d", stmt.Limit))
	}
	return lines
}
