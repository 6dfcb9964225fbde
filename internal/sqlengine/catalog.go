package sqlengine

import (
	"context"
	"fmt"
	"time"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// ScanHint carries predicates the executor pushed down to storage: SPATE
// and SHAHED prune snapshots through their temporal index, RAW ignores it.
type ScanHint struct {
	// Window bounds the ts attribute when Constrained is true. It is a
	// conservative superset of the matching rows; a zero From or To leaves
	// that side open, as a WHERE clause bounding ts on one side does.
	Window      telco.TimeRange
	Constrained bool
	// Spec, when non-nil, is the compiled pushdown spec for the scan: the
	// columns the engine will read and the WHERE conjuncts storage may
	// pre-apply. It is advisory — the engine re-evaluates the full WHERE
	// clause — so providers may ignore it, apply only the predicates, or
	// hand back narrow rows holding just a superset of Spec.Referenced().
	Spec *scanspec.Spec
}

// Provider streams the rows of one table, in batches. Each batch carries
// the layout of its rows as its Schema: the table's full schema, or — when
// the provider honored the hint's projection — a telco.Schema.Project of
// it, which the engine then binds the statement's column references to.
// Every batch of one scan has the same layout. Batches and their rows are
// read-only to the engine and may be retained by it. Scan honors ctx: a
// canceled context stops the stream with ctx.Err() (SPATE prunes between
// snapshot decompressions; in-memory providers check between rows).
type Provider interface {
	Schema() *telco.Schema
	Scan(ctx context.Context, hint ScanHint, fn func(*telco.Table) error) error
}

// Aggregator is implemented by providers whose storage layer can fold a
// Spec's simple aggregates chunk-side and return partial aggregates instead
// of rows. Unlike ScanHint.Spec, the spec here is authoritative: the
// provider must apply Window, RequireTS and every predicate exactly as the
// engine's row path would, because the engine renders the partials straight
// into the result set.
type Aggregator interface {
	Aggregate(ctx context.Context, hint ScanHint, spec *scanspec.Spec) ([]scanspec.Partial, error)
}

// Catalog resolves table names.
type Catalog interface {
	Table(name string) (Provider, error)
}

// MemCatalog is an in-memory catalog over materialized tables; the unit-
// test harness and small tools use it.
type MemCatalog map[string]*telco.Table

// Table implements Catalog.
func (m MemCatalog) Table(name string) (Provider, error) {
	t, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return memProvider{t}, nil
}

type memProvider struct{ t *telco.Table }

func (p memProvider) Schema() *telco.Schema { return p.t.Schema }

func (p memProvider) Scan(ctx context.Context, hint ScanHint, fn func(*telco.Table) error) error {
	tsIdx := p.t.Schema.FieldIndex(telco.AttrTS)
	out := telco.NewTable(p.t.Schema)
	for _, r := range p.t.Rows {
		if err := ctx.Err(); err != nil {
			return err
		}
		if hint.Constrained && tsIdx >= 0 && !r[tsIdx].IsNull() && !inWindow(hint.Window, r[tsIdx].Time()) {
			continue
		}
		out.Rows = append(out.Rows, r)
	}
	return fn(out)
}

// inWindow reports whether a hint's window may hold a row dated t. A zero
// bound is open. A row dated after year 9999 is never pruned: WHERE orders
// timestamps by their wire text, and five year digits order that text
// apart from the time (year 10000's sorts before '2016').
func inWindow(w telco.TimeRange, t time.Time) bool {
	if t.Year() > 9999 {
		return true
	}
	return (w.From.IsZero() || !t.Before(w.From)) && (w.To.IsZero() || t.Before(w.To))
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

// extractWindow walks a WHERE tree's conjunctions and derives a pushdown
// window from comparisons between the ts column of the given binding and
// time literals. The result is a conservative superset; a side no
// comparison bounds stays open (a zero bound, see ScanHint).
func extractWindow(where Expr, binding string) (telco.TimeRange, bool) {
	var lo, hi time.Time
	haveLo, haveHi := false, false

	var visit func(e Expr)
	visit = func(e Expr) {
		b, isBin := e.(*Binary)
		if !isBin {
			if bt, isBetween := e.(*BetweenExpr); isBetween && !bt.Negate {
				if isTSCol(bt.X, binding) {
					if l, _, ok := litTime(bt.Lo); ok {
						tightenLo(&lo, &haveLo, l)
					}
					if _, h, ok := litTime(bt.Hi); ok {
						tightenHi(&hi, &haveHi, h)
					}
				}
			}
			return
		}
		if b.Op == "AND" {
			visit(b.Left)
			visit(b.Right)
			return
		}
		col, lit := b.Left, b.Right
		op := b.Op
		if !isTSCol(col, binding) {
			// Allow literal-on-the-left comparisons by flipping.
			if isTSCol(lit, binding) {
				col, lit = lit, col
				op = flip(op)
			} else {
				return
			}
		}
		l, h, ok := litTime(lit)
		if !ok {
			return
		}
		switch op {
		case "=":
			tightenLo(&lo, &haveLo, l)
			tightenHi(&hi, &haveHi, h)
		case ">", ">=":
			tightenLo(&lo, &haveLo, l)
		case "<":
			tightenHi(&hi, &haveHi, h)
		case "<=":
			tightenHi(&hi, &haveHi, h)
		}
		_ = col
	}
	if where != nil {
		visit(where)
	}
	if !haveLo && !haveHi {
		return telco.TimeRange{}, false
	}
	return telco.TimeRange{From: lo, To: hi}, true
}

func tightenLo(lo *time.Time, have *bool, t time.Time) {
	if !*have || t.After(*lo) {
		*lo = t
		*have = true
	}
}

func tightenHi(hi *time.Time, have *bool, t time.Time) {
	if !*have || t.Before(*hi) {
		*hi = t
		*have = true
	}
}

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

func isTSCol(e Expr, binding string) bool {
	c, ok := e.(*ColumnRef)
	if !ok || c.Name != telco.AttrTS {
		return false
	}
	return c.Qualifier == "" || c.Qualifier == binding
}

func litTime(e Expr) (lo, hi time.Time, ok bool) {
	l, isLit := e.(*Literal)
	if !isLit || !l.IsStr {
		return lo, hi, false
	}
	return parseTimeLit(l.Str)
}
