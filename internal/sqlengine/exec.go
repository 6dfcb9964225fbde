package sqlengine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/telco"
)

// Engine executes SELECT statements against a catalog.
type Engine struct {
	cat Catalog
	// DisablePushdown forces row-path execution even when the provider
	// supports aggregate pushdown — the escape hatch parity tests use to
	// compare both paths bit for bit.
	DisablePushdown bool
}

// NewEngine returns an executor over cat.
func NewEngine(cat Catalog) *Engine { return &Engine{cat: cat} }

// ResultSet is a materialized query answer.
type ResultSet struct {
	Cols []string
	Rows [][]telco.Value
}

// SPATE-SQL observability: statement counts and latency, reported into the
// process-wide registry (bound lazily so noop test registries elsewhere are
// unaffected).
var (
	sqlMetOnce sync.Once
	sqlQueries *obs.Counter
	sqlErrors  *obs.Counter
	sqlSeconds *obs.Histogram
)

func sqlMetrics() (*obs.Counter, *obs.Counter, *obs.Histogram) {
	sqlMetOnce.Do(func() {
		sqlQueries = obs.Default.Counter("spate_sql_queries_total", "SPATE-SQL statements executed.")
		sqlErrors = obs.Default.Counter("spate_sql_errors_total", "SPATE-SQL statements that failed to parse or run.")
		sqlSeconds = obs.Default.Histogram("spate_sql_query_seconds", "SPATE-SQL statement latency.", nil)
	})
	return sqlQueries, sqlErrors, sqlSeconds
}

// Query parses and runs one statement.
func (e *Engine) Query(sql string) (*ResultSet, error) {
	return e.QueryContext(context.Background(), sql)
}

// QueryContext parses and runs one statement under ctx: cancellation
// propagates through the storage scans, so an abandoned client request
// stops consuming the engine (webui handlers pass r.Context()).
func (e *Engine) QueryContext(ctx context.Context, sql string) (*ResultSet, error) {
	queries, errs, sec := sqlMetrics()
	t0 := time.Now()
	queries.Inc()
	rs, err := func() (*ResultSet, error) {
		stmt, err := Parse(sql)
		if err != nil {
			return nil, err
		}
		return e.RunContext(ctx, stmt)
	}()
	sec.ObserveSince(t0)
	if err != nil {
		errs.Inc()
	}
	return rs, err
}

// binding maps one FROM/JOIN table into the combined row. schema is the
// layout of the table's rows inside it: the table's full schema while the
// statement compiles, then — once the scan has run — whatever layout the
// provider's batches declared, which under a pushed-down projection is a
// narrow telco.Schema.Project of it.
type binding struct {
	name   string // alias or table name
	schema *telco.Schema
	offset int
}

// scope resolves column references against the combined row layout.
type scope struct {
	bindings []binding
}

func (s *scope) resolve(c *ColumnRef) (int, error) {
	found := -1
	for _, b := range s.bindings {
		if c.Qualifier != "" && c.Qualifier != b.name {
			continue
		}
		if i := b.schema.FieldIndex(c.Name); i >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("sql: ambiguous column %q", c.exprString())
			}
			found = b.offset + i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", c.exprString())
	}
	return found, nil
}

// width returns the combined row width.
func (s *scope) width() int {
	last := s.bindings[len(s.bindings)-1]
	return last.offset + last.schema.NumFields()
}

// Run executes a parsed statement.
func (e *Engine) Run(stmt *SelectStmt) (*ResultSet, error) {
	return e.RunContext(context.Background(), stmt)
}

// RunContext executes a parsed statement under ctx.
func (e *Engine) RunContext(ctx context.Context, stmt *SelectStmt) (*ResultSet, error) {
	if stmt.Explain {
		return e.explain(ctx, stmt)
	}
	sc, providers, cjs, err := e.bindTables(stmt)
	if err != nil {
		return nil, err
	}

	// Every table's scan hint carries its ts window. Single-table
	// statements compile into a pushdown spec: fully eligible aggregates
	// skip row materialization entirely when the provider folds partials
	// itself; everything else ships the spec as an advisory prefilter with
	// the scan hint. Joined tables each get a projection-only spec — the
	// columns the statement reads from that binding, no predicates (the
	// WHERE clause may span both sides) — so the nested loop concatenates
	// narrow rows.
	hints := make([]ScanHint, len(providers))
	for i := range hints {
		hints[i].Window = cjs[i].win
	}
	if !e.DisablePushdown {
		if len(stmt.Joins) == 0 {
			if plan, ok := compileAggPlan(stmt, sc.bindings[0], cjs[0]); ok {
				if agg, isAgg := providers[0].(Aggregator); isAgg {
					parts, err := agg.Aggregate(ctx, hints[0], plan.spec)
					if err != nil {
						return nil, err
					}
					return plan.result(parts), nil
				}
			}
			hints[0].Spec = compileScanSpec(stmt, sc.bindings[0], cjs[0])
		} else {
			for i, b := range sc.bindings {
				if cols, all := collectColumns(stmt, b); !all {
					hints[i].Spec = &scanspec.Spec{Columns: cols}
				}
			}
		}
	}

	// Resolve uncorrelated IN-subqueries up front.
	subs := map[*InExpr]map[string]bool{}
	if err := e.resolveSubqueries(ctx, stmt, subs); err != nil {
		return nil, err
	}

	// Scan each table, rebinding sc to the layouts its rows came in, then
	// bind the statement to those layouts once: from here on the row loops
	// read column positions.
	tables, err := e.scanTables(ctx, sc, providers, hints)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{scope: sc, subs: subs}
	b := ev.bindStmt(stmt)
	rows, err := ev.join(tables, b.on)
	if err != nil {
		return nil, err
	}

	// WHERE.
	if b.where != nil {
		filtered := rows[:0]
		for _, r := range rows {
			keep, err := ev.evalBool(b.where, r)
			if err != nil {
				return nil, err
			}
			if keep {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}

	// Aggregate or plain projection.
	if stmt.GroupBy != nil || containsAgg(stmt) {
		return e.aggregate(stmt, ev, b, rows)
	}
	return e.project(stmt, ev, b, rows)
}

// bindTables binds the FROM and JOIN tables into one scope, in order, and
// decomposes the WHERE clause for each: the one place a table's ts window
// is derived.
func (e *Engine) bindTables(stmt *SelectStmt) (*scope, []Provider, []conjuncts, error) {
	refs := []TableRef{stmt.From}
	for _, j := range stmt.Joins {
		refs = append(refs, j.Table)
	}
	sc := &scope{bindings: make([]binding, 0, len(refs))}
	providers := make([]Provider, len(refs))
	cjs := make([]conjuncts, len(refs))
	for i, tr := range refs {
		p, err := e.cat.Table(tr.Name)
		if err != nil {
			return nil, nil, nil, err
		}
		b := binding{name: tr.binding(), schema: p.Schema()}
		if i > 0 {
			b.offset = sc.width()
		}
		sc.bindings = append(sc.bindings, b)
		providers[i], cjs[i] = p, decomposeWhere(stmt.Where, b.name, b.schema)
	}
	return sc, providers, cjs, nil
}

// scanTable drains one provider's scan, returning the rows and the layout
// the batches declared for them (the provider's full schema when no batch
// arrived).
func scanTable(ctx context.Context, p Provider, hint ScanHint) (*telco.Schema, [][]telco.Value, error) {
	layout := p.Schema()
	var rows [][]telco.Value
	batches := 0
	err := p.Scan(ctx, hint, func(t *telco.Table) error {
		if batches++; batches == 1 {
			layout = t.Schema
		} else if !sameLayout(layout, t.Schema) {
			return fmt.Errorf("sql: table %q changed row layout mid-scan", layout.Name)
		}
		rows = slices.Grow(rows, len(t.Rows))
		for _, r := range t.Rows {
			rows = append(rows, r)
		}
		return nil
	})
	return layout, rows, err
}

// sameLayout reports whether two batch schemas lay rows out identically.
func sameLayout(a, b *telco.Schema) bool {
	if a == b {
		return true
	}
	if len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i].Name != b.Fields[i].Name {
			return false
		}
	}
	return true
}

// scanTables scans every table under its hint, binding sc to the layout
// each table's rows came in: the combined row is the concatenation of those
// layouts, narrow where a provider honored its spec's projection.
func (e *Engine) scanTables(ctx context.Context, sc *scope, providers []Provider, hints []ScanHint) ([][][]telco.Value, error) {
	tables := make([][][]telco.Value, len(providers))
	width := 0
	for i, p := range providers {
		layout, rows, err := scanTable(ctx, p, hints[i])
		if err != nil {
			return nil, err
		}
		tables[i] = rows
		sc.bindings[i].schema, sc.bindings[i].offset = layout, width
		width += layout.NumFields()
	}
	return tables, nil
}

// join nested-loop joins the scanned tables in order (the paper's T4
// self-join path), keeping the pairs each bound ON predicate accepts.
func (ev *evaluator) join(tables [][][]telco.Value, on []Expr) ([][]telco.Value, error) {
	rows := tables[0]
	for ji, pred := range on {
		var joined [][]telco.Value
		var combined []telco.Value // reused until a pair is kept
		for _, l := range rows {
			for _, r := range tables[ji+1] {
				if combined == nil {
					combined = make([]telco.Value, 0, len(l)+len(r))
				}
				combined = append(append(combined[:0], l...), r...)
				keep, err := ev.evalBool(pred, combined)
				if err != nil {
					return nil, err
				}
				if keep {
					joined = append(joined, combined)
					combined = nil
				}
			}
		}
		rows = joined
	}
	return rows, nil
}

// resolveSubqueries evaluates every uncorrelated IN (SELECT ...) once and
// stores its value set.
func (e *Engine) resolveSubqueries(ctx context.Context, stmt *SelectStmt, subs map[*InExpr]map[string]bool) error {
	var visit func(x Expr) error
	visit = func(x Expr) error {
		switch v := x.(type) {
		case *FuncExpr:
			for _, a := range v.Args {
				if err := visit(a); err != nil {
					return err
				}
			}
		case *Binary:
			if err := visit(v.Left); err != nil {
				return err
			}
			return visit(v.Right)
		case *Unary:
			return visit(v.X)
		case *InExpr:
			if err := visit(v.X); err != nil {
				return err
			}
			if v.Sub == nil {
				return nil
			}
			rs, err := e.RunContext(ctx, v.Sub)
			if err != nil {
				return fmt.Errorf("sql: subquery: %w", err)
			}
			if len(rs.Cols) != 1 {
				return fmt.Errorf("sql: IN subquery must yield one column, got %d", len(rs.Cols))
			}
			set := make(map[string]bool, len(rs.Rows))
			for _, r := range rs.Rows {
				set[r[0].Format()] = true
			}
			subs[v] = set
		case *BetweenExpr:
			if err := visit(v.X); err != nil {
				return err
			}
			if err := visit(v.Lo); err != nil {
				return err
			}
			return visit(v.Hi)
		case *IsNullExpr:
			return visit(v.X)
		case *LikeExpr:
			return visit(v.X)
		case *AggFunc:
			if v.Arg != nil {
				return visit(v.Arg)
			}
		}
		return nil
	}
	if stmt.Where != nil {
		if err := visit(stmt.Where); err != nil {
			return err
		}
	}
	if stmt.Having != nil {
		return visit(stmt.Having)
	}
	return nil
}

func containsAgg(stmt *SelectStmt) bool {
	found := false
	var visit func(Expr)
	visit = func(x Expr) {
		switch v := x.(type) {
		case *AggFunc:
			found = true
		case *Binary:
			visit(v.Left)
			visit(v.Right)
		case *Unary:
			visit(v.X)
		case *FuncExpr:
			for _, a := range v.Args {
				visit(a)
			}
		}
	}
	for _, it := range stmt.Items {
		if it.Expr != nil {
			visit(it.Expr)
		}
	}
	if stmt.Having != nil {
		visit(stmt.Having)
	}
	return found
}

// bound is a statement bound to the layouts its rows arrived in: every
// expression the row loops evaluate, with column references resolved to row
// positions and canonical time literals converted (evaluator.bind), once per
// statement.
type bound struct {
	on      []Expr   // per JOIN
	where   Expr     // nil without WHERE
	cols    []string // output names, * expanded
	items   []Expr   // output expressions, aligned with cols
	groupBy []Expr
	having  Expr // nil without HAVING
	orderBy []Expr
	// orderOut is, per ORDER BY key, the output column a bare unqualified
	// name sorts by (finishResult tries output names first), or -1.
	orderOut []int
}

// bindStmt binds every expression of stmt against ev's scope.
func (ev *evaluator) bindStmt(stmt *SelectStmt) *bound {
	b := &bound{where: ev.bind(stmt.Where), having: ev.bind(stmt.Having)}
	for _, j := range stmt.Joins {
		b.on = append(b.on, ev.bind(j.On))
	}
	var exprs []Expr
	b.cols, exprs = outputColumns(stmt, ev.scope)
	for _, x := range exprs {
		b.items = append(b.items, ev.bind(x))
	}
	for _, g := range stmt.GroupBy {
		b.groupBy = append(b.groupBy, ev.bind(g))
	}
	for _, k := range stmt.OrderBy {
		b.orderBy = append(b.orderBy, ev.bind(k.Expr))
		out := -1
		if c, isCol := k.Expr.(*ColumnRef); isCol && c.Qualifier == "" {
			for ci, name := range b.cols {
				if name == c.Name {
					out = ci
					break
				}
			}
		}
		b.orderOut = append(b.orderOut, out)
	}
	return b
}

// project handles non-aggregated SELECTs. When the SELECT list is the
// row's own leading columns (a bare *, say), each answer row is the scanned
// row resliced; otherwise answer rows are evaluated into one slab. Either
// way an answer row's capacity is its width, so appending to one never
// writes into another.
func (e *Engine) project(stmt *SelectStmt, ev *evaluator, b *bound, rows [][]telco.Value) (*ResultSet, error) {
	rs := &ResultSet{Cols: b.cols}
	if len(rows) == 0 {
		return finishResult(stmt, ev, b, rs, rows)
	}
	k := len(b.items)
	leading := leadingColumns(b.items)
	var slab []telco.Value
	rs.Rows = make([][]telco.Value, len(rows))
	for ri, r := range rows {
		if leading && len(r) >= k {
			rs.Rows[ri] = r[:k:k]
			continue
		}
		if slab == nil {
			slab = make([]telco.Value, (len(rows)-ri)*k)
		}
		out := slab[:k:k]
		slab = slab[k:]
		for i, ex := range b.items {
			v, err := ev.eval(ex, r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rs.Rows[ri] = out
	}
	return finishResult(stmt, ev, b, rs, rows)
}

// leadingColumns reports whether the bound items are the resolved columns
// at positions 0 to len(items)-1, in order.
func leadingColumns(items []Expr) bool {
	for i, x := range items {
		if c, ok := x.(*colRef); !ok || c.err != nil || c.pos != i {
			return false
		}
	}
	return true
}

// outputColumns expands * and names output columns.
func outputColumns(stmt *SelectStmt, sc *scope) ([]string, []Expr) {
	var cols []string
	var exprs []Expr
	for _, it := range stmt.Items {
		if it.Star {
			for _, b := range sc.bindings {
				for _, f := range b.schema.Fields {
					cols = append(cols, f.Name)
					exprs = append(exprs, &ColumnRef{Qualifier: b.name, Name: f.Name})
				}
			}
			continue
		}
		name := it.Alias
		if name == "" {
			name = it.Expr.exprString()
		}
		cols = append(cols, name)
		exprs = append(exprs, it.Expr)
	}
	return cols, exprs
}

// aggregate executes GROUP BY / aggregate queries with hash grouping.
func (e *Engine) aggregate(stmt *SelectStmt, ev *evaluator, b *bound, rows [][]telco.Value) (*ResultSet, error) {
	// Collect every aggregate instance referenced by the statement.
	var aggs []*AggFunc
	var collect func(Expr)
	collect = func(x Expr) {
		switch v := x.(type) {
		case *AggFunc:
			aggs = append(aggs, v)
		case *Binary:
			collect(v.Left)
			collect(v.Right)
		case *Unary:
			collect(v.X)
		case *FuncExpr:
			for _, a := range v.Args {
				collect(a)
			}
		}
	}
	for _, x := range b.items {
		collect(x)
	}
	if b.having != nil {
		collect(b.having)
	}
	for _, k := range b.orderBy {
		collect(k)
	}

	type group struct {
		first  []telco.Value
		states []aggState
	}
	groups := map[string]*group{}
	var orderKeys []string

	for _, r := range rows {
		var kb strings.Builder
		for _, g := range b.groupBy {
			v, err := ev.eval(g, r)
			if err != nil {
				return nil, err
			}
			kb.WriteString(v.Format())
			kb.WriteByte('\x00')
		}
		key := kb.String()
		grp := groups[key]
		if grp == nil {
			grp = &group{first: r, states: make([]aggState, len(aggs))}
			for i, a := range aggs {
				grp.states[i] = newAggState(a)
			}
			groups[key] = grp
			orderKeys = append(orderKeys, key)
		}
		for i, a := range aggs {
			if a.Star {
				grp.states[i].add(telco.Int(1), true)
				continue
			}
			v, err := ev.eval(a.Arg, r)
			if err != nil {
				return nil, err
			}
			grp.states[i].add(v, false)
		}
	}
	// A global aggregate over zero rows still yields one group.
	if len(groups) == 0 && len(stmt.GroupBy) == 0 {
		grp := &group{first: make([]telco.Value, ev.scope.width()), states: make([]aggState, len(aggs))}
		for i, a := range aggs {
			grp.states[i] = newAggState(a)
		}
		groups[""] = grp
		orderKeys = append(orderKeys, "")
	}

	rs := &ResultSet{Cols: b.cols}
	var resultContexts [][]telco.Value
	for _, key := range orderKeys {
		grp := groups[key]
		ev.aggValues = make(map[*AggFunc]telco.Value, len(aggs))
		for i, a := range aggs {
			ev.aggValues[a] = grp.states[i].value()
		}
		if b.having != nil {
			keep, err := ev.evalBool(b.having, grp.first)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		out := make([]telco.Value, len(b.items))
		for i, ex := range b.items {
			v, err := ev.eval(ex, grp.first)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rs.Rows = append(rs.Rows, out)
		resultContexts = append(resultContexts, grp.first)
		// Keep agg values alive for ORDER BY evaluation of this row.
		ev.rowAggs = append(ev.rowAggs, ev.aggValues)
	}
	return finishResult(stmt, ev, b, rs, resultContexts)
}

// finishResult applies DISTINCT, ORDER BY and LIMIT.
func finishResult(stmt *SelectStmt, ev *evaluator, b *bound, rs *ResultSet, contexts [][]telco.Value) (*ResultSet, error) {
	if stmt.Distinct {
		seen := map[string]bool{}
		var rows [][]telco.Value
		var ctxs [][]telco.Value
		for i, r := range rs.Rows {
			var kb strings.Builder
			for _, v := range r {
				kb.WriteString(v.Format())
				kb.WriteByte('\x00')
			}
			if !seen[kb.String()] {
				seen[kb.String()] = true
				rows = append(rows, r)
				if contexts != nil && i < len(contexts) {
					ctxs = append(ctxs, contexts[i])
				}
			}
		}
		rs.Rows = rows
		contexts = ctxs
	}
	if len(stmt.OrderBy) > 0 {
		// Pre-compute sort keys in row order.
		keys := make([][]telco.Value, len(rs.Rows))
		for i := range rs.Rows {
			ctx := []telco.Value(nil)
			if contexts != nil && i < len(contexts) {
				ctx = contexts[i]
			}
			if ev.rowAggs != nil && i < len(ev.rowAggs) {
				ev.aggValues = ev.rowAggs[i]
			}
			ks := make([]telco.Value, len(stmt.OrderBy))
			for j, x := range b.orderBy {
				if ci := b.orderOut[j]; ci >= 0 {
					ks[j] = rs.Rows[i][ci]
					continue
				}
				v, err := ev.eval(x, ctx)
				if err != nil {
					return nil, err
				}
				ks[j] = v
			}
			keys[i] = ks
		}
		idx := make([]int, len(rs.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for j, ok := range stmt.OrderBy {
				c := keys[idx[a]][j].Compare(keys[idx[b]][j])
				if c != 0 {
					if ok.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		sorted := make([][]telco.Value, len(rs.Rows))
		for i, id := range idx {
			sorted[i] = rs.Rows[id]
		}
		rs.Rows = sorted
	}
	if stmt.Limit >= 0 && len(rs.Rows) > stmt.Limit {
		rs.Rows = rs.Rows[:stmt.Limit]
	}
	return rs, nil
}
