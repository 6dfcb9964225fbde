package sqlengine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// Pushdown compilation: translating an eligible statement (or its WHERE
// clause) into a scanspec.Spec the storage layer can evaluate against
// column streams. Two levels exist:
//
//   - Row-scan specs (compileScanSpec) are prefilters. Conjuncts that do
//     not decompose are simply dropped — the engine still evaluates the
//     full WHERE clause over the returned rows — so the spec only has to
//     be a superset-preserving filter plus the column set the engine reads.
//
//   - Row plans (compileRowPlan) replace execution of a plain SELECT: the
//     provider's scan applies the WHERE clause exactly and its filtered
//     column batches are the answer, never turned into rows of values
//     unless the caller asks for Rows.
//
//   - Aggregate plans (compileAggPlan) replace execution entirely: the
//     provider folds partial aggregates and the engine renders them into
//     the result set. Every eligibility rule here exists to keep that
//     rendering bit-for-bit identical to the row path, including output
//     order (which is why grouped plans demand an ORDER BY on the group
//     column: partials merge in key order, rows group in first-seen order,
//     and only a total order reconciles the two).

// conjuncts is a WHERE clause decomposed for one binding (decomposeWhere).
// win is the binding's ts window — the one window its scan hint, its
// pushdown spec and EXPLAIN carry — and requireTS marks that a timestamp
// conjunct was captured, so a row without a timestamp fails the clause.
// full reports that every conjunct was captured: the precondition for
// aggregate pushdown, where storage filtering is authoritative rather than
// advisory.
type conjuncts struct {
	preds     []scanspec.Pred
	win       *scanspec.TimeWindow
	requireTS bool
	full      bool
}

// decomposeWhere splits a WHERE tree into conjuncts the storage layer can
// evaluate: plain column-op-literal predicates over non-time columns, and
// timestamp comparisons against (possibly truncated) time literals, which
// tighten the binding's window. Each conjunct it captures is a condition
// every row the clause keeps meets, so the window holds every such row.
func decomposeWhere(where Expr, bindingName string, schema *telco.Schema) conjuncts {
	cj := conjuncts{full: true}
	if where == nil {
		return cj
	}
	// ts captures one timestamp comparison, or gives up on full
	// decomposition (ts != ..., ts against a non-literal).
	ts := func(op string, lit Expr) {
		l, isLit := lit.(*Literal)
		if !isLit || !l.IsStr || !cj.applyTSOp(op, l.Str) {
			cj.full = false
		}
	}
	var visit func(e Expr)
	visit = func(e Expr) {
		switch v := e.(type) {
		case *Binary:
			if v.Op == "AND" {
				visit(v.Left)
				visit(v.Right)
				return
			}
			col, lit, op := v.Left, v.Right, v.Op
			if !isTSCol(col, bindingName) && isTSCol(lit, bindingName) {
				col, lit, op = lit, col, flip(op)
			}
			if isTSCol(col, bindingName) {
				ts(op, lit)
				return
			}
			if _, isCol := col.(*ColumnRef); !isCol {
				if _, litIsCol := lit.(*ColumnRef); litIsCol {
					col, lit, op = lit, col, flip(op)
				}
			}
			if p, ok := predConjunct(col, lit, op, bindingName, schema); ok {
				cj.preds = append(cj.preds, p)
				return
			}
			cj.full = false
		case *BetweenExpr:
			if v.Negate {
				cj.full = false
				return
			}
			if isTSCol(v.X, bindingName) {
				// ts BETWEEN a AND b evaluates as ts >= a AND ts <= b
				// under the engine's lexicographic time-vs-string compare.
				ts(">=", v.Lo)
				ts("<=", v.Hi)
				return
			}
			pLo, okLo := predConjunct(v.X, v.Lo, ">=", bindingName, schema)
			pHi, okHi := predConjunct(v.X, v.Hi, "<=", bindingName, schema)
			if !okLo || !okHi {
				cj.full = false
				return
			}
			cj.preds = append(cj.preds, pLo, pHi)
		default:
			cj.full = false
		}
	}
	visit(where)
	return cj
}

// applyTSOp narrows the window by one "ts <op> literal" comparison,
// mapping the engine's lexicographic wire-form compare onto whole seconds,
// and reports whether it could. A truncated literal denotes its covered
// interval [lo, hi): equality means containment, and order comparisons
// resolve against the interval start (every stored timestamp formats to
// the full layout, so it never compares equal to a shorter literal).
func (cj *conjuncts) applyTSOp(op, lit string) bool {
	lo, hi, ok := parseTimeLit(lit)
	if !ok {
		return false
	}
	// after is the first second whose wire text sorts after the literal.
	after := lo.Unix()
	if len(lit) == len(telco.TimeLayout) {
		after = hi.Unix()
	}
	var w scanspec.TimeWindow
	switch op {
	case "=":
		w = scanspec.TimeWindow{From: lo.Unix(), HasFrom: true, To: hi.Unix(), HasTo: true}
	case ">=":
		w = scanspec.TimeWindow{From: lo.Unix(), HasFrom: true}
	case ">":
		w = scanspec.TimeWindow{From: after, HasFrom: true}
	case "<":
		w = scanspec.TimeWindow{To: lo.Unix(), HasTo: true}
	case "<=":
		w = scanspec.TimeWindow{To: after, HasTo: true}
	default:
		return false
	}
	cj.win, cj.requireTS = cj.win.Intersect(&w), true
	return true
}

// parseTimeLit interprets a (possibly truncated) timestamp literal like the
// paper's '2015' or '201601221530' as the covered time interval
// [lo, hi): '2016' covers the year, '20160122' the day, and so on.
// Accepted lengths: 4 (year), 6 (month), 8 (day), 10 (hour), 12 (minute),
// 14 (second).
func parseTimeLit(s string) (lo, hi time.Time, ok bool) {
	layouts := map[int]string{
		4: "2006", 6: "200601", 8: "20060102",
		10: "2006010215", 12: "200601021504", 14: "20060102150405",
	}
	layout, found := layouts[len(s)]
	if !found {
		return lo, hi, false
	}
	t, err := time.ParseInLocation(layout, s, time.UTC)
	if err != nil {
		return lo, hi, false
	}
	switch len(s) {
	case 4:
		return t, t.AddDate(1, 0, 0), true
	case 6:
		return t, t.AddDate(0, 1, 0), true
	case 8:
		return t, t.AddDate(0, 0, 1), true
	case 10:
		return t, t.Add(time.Hour), true
	case 12:
		return t, t.Add(time.Minute), true
	default:
		return t, t.Add(time.Second), true
	}
}

// flip mirrors a comparison for swapped operands.
func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// isTSCol reports whether e is the ts column of the given binding.
func isTSCol(e Expr, binding string) bool {
	c, ok := e.(*ColumnRef)
	if !ok || c.Name != telco.AttrTS {
		return false
	}
	return c.Qualifier == "" || c.Qualifier == binding
}

// predConjunct captures one "column <op> literal" comparison as a storage
// predicate when scanspec.Pred.Eval would agree with the engine's row
// evaluation: bare non-time column of the scanned table, non-null literal,
// plain comparison operator. Literal-on-the-left comparisons arrive here
// already flipped by the caller; BETWEEN bounds come in with their implied
// operators.
func predConjunct(colE, litE Expr, op, bindingName string, schema *telco.Schema) (scanspec.Pred, bool) {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return scanspec.Pred{}, false
	}
	c, ok := colE.(*ColumnRef)
	if !ok || (c.Qualifier != "" && c.Qualifier != bindingName) {
		return scanspec.Pred{}, false
	}
	fi := schema.FieldIndex(c.Name)
	if fi < 0 || schema.Fields[fi].Kind == telco.KindTime {
		// Time columns use the engine's lexicographic/containment
		// semantics, which Pred.Eval does not reproduce.
		return scanspec.Pred{}, false
	}
	l, ok := litE.(*Literal)
	if !ok {
		return scanspec.Pred{}, false
	}
	kind, val, ok := litWire(l)
	if !ok {
		return scanspec.Pred{}, false
	}
	return scanspec.Pred{Col: c.Name, Op: op, Kind: kind, Val: val}, true
}

// litWire renders a literal in scanspec wire form. Booleans travel as the
// integers the evaluator coerces them to; NULL literals are not capturable
// (the conjunct is three-valued and filters every row in the engine).
func litWire(l *Literal) (kind, val string, ok bool) {
	switch {
	case l.IsNull:
		return "", "", false
	case l.IsStr:
		return "str", l.Str, true
	case l.IsInt:
		return "int", strconv.FormatInt(l.Int, 10), true
	case l.IsBool:
		if l.Bool {
			return "int", "1", true
		}
		return "int", "0", true
	default:
		return "float", strconv.FormatFloat(l.Float, 'g', -1, 64), true
	}
}

// collectColumns gathers every column the statement reads from binding b
// (unqualified references count for every binding that has the column), in
// first-use order. all reports a SELECT * — the scan must materialize every
// column. Bare ORDER BY references that name an output column resolve
// against the projected row (finishResult tries output names first), so
// they do not demand the column from storage.
func collectColumns(stmt *SelectStmt, b binding) (cols []string, all bool) {
	for _, it := range stmt.Items {
		if it.Star {
			return nil, true
		}
	}
	outNames := make(map[string]bool, len(stmt.Items))
	for _, it := range stmt.Items {
		name := it.Alias
		if name == "" {
			name = it.Expr.exprString()
		}
		outNames[name] = true
	}
	seen := map[string]bool{}
	cols = []string{}
	var walk func(x Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case *ColumnRef:
			if v.Qualifier != "" && v.Qualifier != b.name {
				return
			}
			if b.schema.FieldIndex(v.Name) >= 0 && !seen[v.Name] {
				seen[v.Name] = true
				cols = append(cols, v.Name)
			}
		case *Binary:
			walk(v.Left)
			walk(v.Right)
		case *Unary:
			walk(v.X)
		case *FuncExpr:
			for _, a := range v.Args {
				walk(a)
			}
		case *AggFunc:
			if v.Arg != nil {
				walk(v.Arg)
			}
		case *InExpr:
			// Subquery columns belong to the subquery's own scan.
			walk(v.X)
			for _, le := range v.List {
				walk(le)
			}
		case *BetweenExpr:
			walk(v.X)
			walk(v.Lo)
			walk(v.Hi)
		case *IsNullExpr:
			walk(v.X)
		case *LikeExpr:
			walk(v.X)
		}
	}
	for _, it := range stmt.Items {
		walk(it.Expr)
	}
	for _, j := range stmt.Joins {
		walk(j.On)
	}
	if stmt.Where != nil {
		walk(stmt.Where)
	}
	for _, g := range stmt.GroupBy {
		walk(g)
	}
	if stmt.Having != nil {
		walk(stmt.Having)
	}
	for _, ok := range stmt.OrderBy {
		if c, isCol := ok.Expr.(*ColumnRef); isCol && c.Qualifier == "" && outNames[c.Name] {
			continue
		}
		walk(ok.Expr)
	}
	return cols, false
}

// compileScanSpec builds the advisory row-scan spec for a single-table
// statement whose WHERE clause decomposed into cj. It returns nil when the
// spec would carry no information (every column needed, no capturable
// conjuncts).
func compileScanSpec(stmt *SelectStmt, b binding, cj conjuncts) *scanspec.Spec {
	cols, all := collectColumns(stmt, b)
	if all {
		cols = nil
	}
	if cols == nil && len(cj.preds) == 0 && !cj.requireTS {
		return nil
	}
	return &scanspec.Spec{Columns: cols, Preds: cj.preds, Window: cj.win, RequireTS: cj.requireTS}
}

// rowPlan is a plain SELECT answered by the provider's scan: the spec the
// scan applies, authoritatively, and per output column its name and the
// table column it reads.
type rowPlan struct {
	spec *scanspec.Spec
	cols []string
	src  []string
}

// compileRowPlan recognizes statements whose answer is the scan's own rows,
// in scan order: a single table, items that are * or bare columns of it,
// no GROUP BY, HAVING, DISTINCT, ORDER BY, LIMIT or aggregate, and a WHERE
// clause that decomposed whole (cj.full), so the spec's filter is the
// clause itself. cj is the statement's WHERE clause decomposed for b.
func compileRowPlan(stmt *SelectStmt, b binding, cj conjuncts) (*rowPlan, bool) {
	if len(stmt.Joins) > 0 || len(stmt.GroupBy) > 0 || stmt.Having != nil || stmt.Distinct ||
		len(stmt.OrderBy) > 0 || stmt.Limit >= 0 || !cj.full || containsAgg(stmt) {
		return nil, false
	}
	if cj.requireTS && b.schema.FieldIndex(telco.AttrTS) < 0 {
		return nil, false // the row path fails on the unknown column
	}
	plan := &rowPlan{}
	for _, it := range stmt.Items {
		if it.Star {
			for _, f := range b.schema.Fields {
				plan.cols = append(plan.cols, f.Name)
				plan.src = append(plan.src, f.Name)
			}
			continue
		}
		c, ok := it.Expr.(*ColumnRef)
		if !ok || (c.Qualifier != "" && c.Qualifier != b.name) || b.schema.FieldIndex(c.Name) < 0 {
			return nil, false
		}
		name := it.Alias
		if name == "" {
			name = c.exprString()
		}
		plan.cols = append(plan.cols, name)
		plan.src = append(plan.src, c.Name)
	}
	cols, all := collectColumns(stmt, b)
	if all {
		cols = nil
	}
	plan.spec = &scanspec.Spec{Columns: cols, Preds: cj.preds, Window: cj.win, RequireTS: cj.requireTS}
	return plan, true
}

// rowPushdown returns the row plan by which p answers stmt, bound as b
// with its WHERE clause decomposed into cj, when p hands out column
// batches and the statement is eligible.
func (e *Engine) rowPushdown(stmt *SelectStmt, b binding, p Provider, cj conjuncts) (*rowPlan, BatchScanner, bool) {
	bs, isBatch := p.(BatchScanner)
	if !isBatch || e.DisablePushdown {
		return nil, nil, false
	}
	plan, ok := compileRowPlan(stmt, b, cj)
	return plan, bs, ok
}

// scan runs the plan over bs, keeping the batches as the answer. Batches
// is non-nil even when no row came back: that marks an answer the row
// pushdown gave.
func (p *rowPlan) scan(ctx context.Context, bs BatchScanner, hint ScanHint) (*ResultSet, error) {
	rs := &ResultSet{Cols: p.cols, Batches: []*telco.Batch{}}
	var layout *telco.Schema
	err := bs.ScanBatches(ctx, hint, p.spec, func(l *telco.Schema, b *telco.Batch) error {
		if layout == nil {
			layout, rs.Pick = l, make([]int, len(p.src))
			for j, name := range p.src {
				if rs.Pick[j] = l.FieldIndex(name); rs.Pick[j] < 0 {
					return fmt.Errorf("sql: table %q scanned without column %q", l.Name, name)
				}
			}
		} else if !sameLayout(layout, l) {
			return fmt.Errorf("sql: table %q changed row layout mid-scan", layout.Name)
		}
		rs.Batches = append(rs.Batches, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// aggPlan is a fully pushed-down aggregate statement: the spec the provider
// folds, plus the rendering recipe turning its partials into the result set.
type aggPlan struct {
	spec *scanspec.Spec
	cols []string
	// group marks items projecting the group column; others index spec.Aggs
	// through aggIdx.
	group  []bool
	aggIdx []int
	// orderIdx/orderDesc are ORDER BY keys as output column indexes.
	orderIdx  []int
	orderDesc []bool
	limit     int
}

// compileAggPlan recognizes statements the storage layer can answer with
// partial aggregates: a single table, conjunctive fully-decomposable WHERE,
// items that are bare COUNT/SUM/MIN/MAX aggregates or the single bare GROUP
// BY column, no HAVING/DISTINCT, and an ORDER BY over output columns that
// totally orders grouped results (it must include the group column — group
// values are unique, so the sort then reconciles the row path's first-seen
// emission order with the merge's key order). SUM pushes down only over
// integer columns so partial sums stay exact in any association order. cj
// is the statement's WHERE clause decomposed for b.
func compileAggPlan(stmt *SelectStmt, b binding, cj conjuncts) (*aggPlan, bool) {
	if len(stmt.Joins) > 0 || stmt.Distinct || stmt.Having != nil || len(stmt.Items) == 0 {
		return nil, false
	}
	if len(stmt.GroupBy) == 0 && !containsAgg(stmt) {
		return nil, false
	}
	if !cj.full {
		return nil, false
	}
	group := ""
	if len(stmt.GroupBy) > 1 {
		return nil, false
	}
	if len(stmt.GroupBy) == 1 {
		c, ok := stmt.GroupBy[0].(*ColumnRef)
		if !ok || (c.Qualifier != "" && c.Qualifier != b.name) || b.schema.FieldIndex(c.Name) < 0 {
			return nil, false
		}
		group = c.Name
	}
	spec := &scanspec.Spec{Preds: cj.preds, Window: cj.win, RequireTS: cj.requireTS, GroupBy: group}
	plan := &aggPlan{limit: stmt.Limit}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, false
		}
		name := it.Alias
		if name == "" {
			name = it.Expr.exprString()
		}
		switch v := it.Expr.(type) {
		case *ColumnRef:
			if group == "" || v.Name != group || (v.Qualifier != "" && v.Qualifier != b.name) {
				return nil, false
			}
			plan.group = append(plan.group, true)
			plan.aggIdx = append(plan.aggIdx, -1)
		case *AggFunc:
			a, ok := pushAgg(v, b)
			if !ok {
				return nil, false
			}
			plan.group = append(plan.group, false)
			plan.aggIdx = append(plan.aggIdx, len(spec.Aggs))
			spec.Aggs = append(spec.Aggs, a)
		default:
			return nil, false
		}
		plan.cols = append(plan.cols, name)
	}
	if len(spec.Aggs) == 0 {
		return nil, false
	}
	groupOrdered := group == ""
	for _, ok := range stmt.OrderBy {
		c, isCol := ok.Expr.(*ColumnRef)
		if !isCol || c.Qualifier != "" {
			return nil, false
		}
		idx := -1
		for i, name := range plan.cols {
			if name == c.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, false
		}
		plan.orderIdx = append(plan.orderIdx, idx)
		plan.orderDesc = append(plan.orderDesc, ok.Desc)
		if plan.group[idx] {
			groupOrdered = true
		}
	}
	if !groupOrdered {
		return nil, false
	}
	plan.spec = spec
	return plan, true
}

// pushAgg maps one SELECT-list aggregate onto its pushdown form.
func pushAgg(v *AggFunc, b binding) (scanspec.Agg, bool) {
	if v.Distinct {
		return scanspec.Agg{}, false
	}
	switch v.Name {
	case "COUNT":
		if v.Star {
			return scanspec.Agg{Fn: "COUNT"}, true
		}
	case "SUM", "MIN", "MAX":
	default:
		return scanspec.Agg{}, false
	}
	c, ok := v.Arg.(*ColumnRef)
	if !ok || (c.Qualifier != "" && c.Qualifier != b.name) {
		return scanspec.Agg{}, false
	}
	fi := b.schema.FieldIndex(c.Name)
	if fi < 0 {
		return scanspec.Agg{}, false
	}
	if v.Name == "SUM" && b.schema.Fields[fi].Kind != telco.KindInt {
		return scanspec.Agg{}, false
	}
	return scanspec.Agg{Fn: v.Name, Col: c.Name}, true
}

// result renders merged partials into the statement's result set, mirroring
// the row path: a zero-row ungrouped aggregate still yields one row, ORDER
// BY keys compare output values, and LIMIT truncates last. The rows share
// one slab, and they are sorted only when they are not in ORDER BY order
// already — merged partials arrive in key order, which is often it.
func (p *aggPlan) result(parts []scanspec.Partial) *ResultSet {
	if len(parts) == 0 && p.spec.GroupBy == "" {
		parts = []scanspec.Partial{*p.spec.NewPartial(telco.Null)}
	}
	n := len(p.cols)
	rs := &ResultSet{Cols: p.cols, Rows: make([][]telco.Value, len(parts))}
	slab := make([]telco.Value, len(parts)*n)
	for k := range parts {
		part, row := &parts[k], slab[k*n:(k+1)*n:(k+1)*n]
		for i := range p.cols {
			if p.group[i] {
				row[i] = part.Group.Value()
			} else {
				ai := p.aggIdx[i]
				row[i] = p.spec.Aggs[ai].Finalize(&part.Cells[ai])
			}
		}
		rs.Rows[k] = row
	}
	if len(p.orderIdx) > 0 {
		less := func(a, b int) bool {
			for j, ci := range p.orderIdx {
				c := rs.Rows[a][ci].Compare(rs.Rows[b][ci])
				if c != 0 {
					if p.orderDesc[j] {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		}
		if !sort.SliceIsSorted(rs.Rows, less) {
			sort.SliceStable(rs.Rows, less)
		}
	}
	if p.limit >= 0 && len(rs.Rows) > p.limit {
		rs.Rows = rs.Rows[:p.limit]
	}
	return rs
}
