// Package scanspec defines the pushdown contract between the SQL layer and
// the storage engine: which columns a query touches, which conjunctive
// predicates the scan may apply, and which simple aggregates it may fold
// chunk-side instead of materializing rows. The types are shared by
// internal/sqlengine (which compiles WHERE clauses and SELECT lists into a
// Spec), internal/core (which evaluates a Spec against column streams) and
// internal/cluster (which forwards a Spec through /rpc/explore so shards
// ship partial aggregates instead of rows). core.ScanSpec aliases Spec.
//
// Predicate evaluation here must stay exactly equivalent to the SQL
// engine's row-level evaluation of the same conjunct: the engine only
// compiles a comparison into a Pred when both agree (non-null literal,
// non-time column, plain column-op-literal shape), and Pred.Eval mirrors
// sqlengine's NULL-rejecting telco.Value.Compare semantics for that shape.
package scanspec

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"spate/internal/telco"
)

// Pred is one conjunctive predicate: column op literal. Op is one of
// = != < <= > >=. The literal travels in wire form with an explicit kind
// ("int", "float" or "str") so it reconstructs bit-for-bit across the
// cluster RPC boundary.
type Pred struct {
	Col  string `json:"col"`
	Op   string `json:"op"`
	Kind string `json:"kind"`
	Val  string `json:"val"`
}

// String renders the predicate for EXPLAIN plans.
func (p Pred) String() string {
	if p.Kind == "str" {
		return p.Col + p.Op + "'" + p.Val + "'"
	}
	return p.Col + p.Op + p.Val
}

// Literal reconstructs the comparison literal as a typed value.
func (p Pred) Literal() telco.Value {
	switch p.Kind {
	case "int":
		i, err := strconv.ParseInt(p.Val, 10, 64)
		if err != nil {
			return telco.Null
		}
		return telco.Int(i)
	case "float":
		f, err := strconv.ParseFloat(p.Val, 64)
		if err != nil {
			return telco.Null
		}
		return telco.Float(f)
	case "str":
		return telco.String(p.Val)
	}
	return telco.Null
}

// Eval reports whether a row value satisfies the predicate. A null row
// value never satisfies it (SQL three-valued logic: the conjunct is
// unknown, so the row is filtered), matching the SQL engine's evaluator.
func (p Pred) Eval(v telco.Value) bool {
	if v.IsNull() {
		return false
	}
	lit := p.Literal()
	if lit.IsNull() {
		return false
	}
	c := v.Compare(lit)
	switch p.Op {
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
	case ">=":
		return c >= 0
	}
	return false
}

// IntLiteral returns the literal as an int64 when the predicate compares
// against an integer — the only shape integer zone maps may prune.
func (p Pred) IntLiteral() (int64, bool) {
	if p.Kind != "int" {
		return 0, false
	}
	i, err := strconv.ParseInt(p.Val, 10, 64)
	return i, err == nil
}

// ZonePrune reports whether an integer zone map [min,max] proves no value
// of the column can satisfy the predicate — the chunk is skippable without
// decoding the column. Only integer literals prune: the zone holds exact
// int64 bounds and the comparison must match Pred.Eval's integer compare.
func (p Pred) ZonePrune(min, max int64) bool {
	lit, ok := p.IntLiteral()
	if !ok {
		return false
	}
	switch p.Op {
	case "=":
		return lit < min || lit > max
	case "!=":
		return min == max && min == lit
	case "<":
		return min >= lit
	case "<=":
		return min > lit
	case ">":
		return max <= lit
	case ">=":
		return max < lit
	}
	return false
}

// ZoneAllMatch reports whether an integer zone map [min,max] proves every
// value of the column satisfies the predicate — the whole chunk matches
// and an aggregate over it can be answered from metadata alone. The zone's
// presence already guarantees the column has no nulls in the chunk.
func (p Pred) ZoneAllMatch(min, max int64) bool {
	lit, ok := p.IntLiteral()
	if !ok {
		return false
	}
	switch p.Op {
	case "=":
		return min == max && min == lit
	case "!=":
		return max < lit || min > lit
	case "<":
		return max < lit
	case "<=":
		return max <= lit
	case ">":
		return min > lit
	case ">=":
		return min >= lit
	}
	return false
}

// Agg is one pushed-down aggregate. Fn is COUNT, SUM, MIN or MAX; an empty
// Col means COUNT(*). SUM is only pushed down over integer columns so the
// partial sums stay exact under any association order (floating-point sums
// depend on addition order and would break bit-for-bit row-path parity).
type Agg struct {
	Fn  string `json:"fn"`
	Col string `json:"col,omitempty"`
}

// String renders the aggregate for EXPLAIN plans.
func (a Agg) String() string {
	if a.Col == "" {
		return a.Fn + "(*)"
	}
	return a.Fn + "(" + a.Col + ")"
}

// Spec is the pushdown contract for one table scan.
//
// Columns lists the columns the caller needs materialized (nil keeps every
// column, an explicit empty, non-nil slice keeps none beyond bookkeeping).
// The two travel apart on the wire, as null and [].
// Preds are conjunctive filters the scan applies before materializing a
// row. When Aggs is non-empty the scan returns partial aggregates instead
// of rows, optionally grouped by the single low-cardinality GroupBy column.
type Spec struct {
	Columns []string `json:"columns"`
	Preds   []Pred   `json:"preds,omitempty"`
	Aggs    []Agg    `json:"aggs,omitempty"`
	GroupBy string   `json:"group_by,omitempty"`
	// RequireTS marks that the WHERE clause carried a timestamp conjunct:
	// rows without a timestamp are dropped (a NULL comparison filters the
	// row in SQL), whereas a bare window scan keeps them.
	RequireTS bool `json:"require_ts,omitempty"`
	// Window is the window the WHERE clause's timestamp conjuncts denote
	// (nil when they impose no bound), the one the scan hint carries too.
	// It decides row membership exactly, so aggregate pushdown reproduces
	// the row path bit for bit.
	Window *TimeWindow `json:"window,omitempty"`
}

// TimeWindow is a scan's time window: the half-open interval of Unix
// seconds [From, To) the WHERE clause's timestamp conjuncts denote, each
// side open unless its Has flag is set. One window, derived once per
// scanned table, is what every layer tests: the SQL engine's in-memory
// tables, the frameworks' temporal indexes, a chunk's timestamp range and
// each row. A nil window is open on both sides.
//
// A row at or past MaxWireSec is never outside a window: the SQL engine
// compares a timestamp with a literal on its wire text, and five or more
// year digits sort that text apart from the time it names.
type TimeWindow struct {
	From    int64 `json:"from,omitempty"`
	HasFrom bool  `json:"has_from,omitempty"`
	To      int64 `json:"to,omitempty"`
	HasTo   bool  `json:"has_to,omitempty"`
}

// MaxWireSec is the first Unix second of the year 10000: every earlier time
// formats to fourteen digits of telco.TimeLayout, or to fewer than a
// four-digit year with a leading zero or sign, so its wire text orders
// against a time literal as its seconds do.
const MaxWireSec = 253402300800

// minWireSec is the first Unix second of the year 0, the earliest time a
// fourteen-digit wire form names.
const minWireSec = -62167219200

// Contains reports whether a row dated sec lies inside the window.
func (tw *TimeWindow) Contains(sec int64) bool {
	if tw == nil || sec >= MaxWireSec {
		return true
	}
	return (!tw.HasFrom || sec >= tw.From) && (!tw.HasTo || sec < tw.To)
}

// OverlapsRange reports whether a row dated in [lo, hi] may lie inside.
func (tw *TimeWindow) OverlapsRange(lo, hi int64) bool {
	if tw == nil || hi >= MaxWireSec {
		return true
	}
	return (!tw.HasFrom || hi >= tw.From) && (!tw.HasTo || lo < tw.To)
}

// Intersect returns the window both tw and o bound: the later From and the
// earlier To of the sides they set, nil when both are nil. Neither operand
// changes.
func (tw *TimeWindow) Intersect(o *TimeWindow) *TimeWindow {
	if tw == nil && o == nil {
		return nil
	}
	var w TimeWindow
	for _, s := range [2]*TimeWindow{tw, o} {
		if s == nil {
			continue
		}
		if s.HasFrom && (!w.HasFrom || s.From > w.From) {
			w.From, w.HasFrom = s.From, true
		}
		if s.HasTo && (!w.HasTo || s.To < w.To) {
			w.To, w.HasTo = s.To, true
		}
	}
	return &w
}

// Range is the window as the time range a framework scans: an open side
// becomes the start of the year 0 or of the year 10000, past every time a
// stored fourteen-digit wire form names.
func (tw *TimeWindow) Range() telco.TimeRange {
	r := telco.TimeRange{From: time.Unix(minWireSec, 0).UTC(), To: time.Unix(MaxWireSec, 0).UTC()}
	if tw != nil && tw.HasFrom {
		r.From = time.Unix(tw.From, 0).UTC()
	}
	if tw != nil && tw.HasTo {
		r.To = time.Unix(tw.To, 0).UTC()
	}
	return r
}

// IsAggregate reports whether the scan folds aggregates instead of
// returning rows.
func (s *Spec) IsAggregate() bool { return s != nil && len(s.Aggs) > 0 }

// Referenced returns every column the spec touches — projection, predicate,
// aggregate arguments and the group key — deduplicated, in first-use order.
// The storage engine decodes exactly these (plus its own bookkeeping
// columns such as the timestamp for window filtering).
func (s *Spec) Referenced() []string {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	add := func(c string) {
		if c != "" && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, c := range s.Columns {
		add(c)
	}
	for _, p := range s.Preds {
		add(p.Col)
	}
	for _, a := range s.Aggs {
		add(a.Col)
	}
	add(s.GroupBy)
	return out
}

// String renders the spec for EXPLAIN plans.
func (s *Spec) String() string {
	if s == nil {
		return "full scan"
	}
	var parts []string
	if len(s.Aggs) > 0 {
		aggs := make([]string, len(s.Aggs))
		for i, a := range s.Aggs {
			aggs[i] = a.String()
		}
		parts = append(parts, "agg "+strings.Join(aggs, ","))
		if s.GroupBy != "" {
			parts = append(parts, "group "+s.GroupBy)
		}
	} else if s.Columns != nil {
		parts = append(parts, "cols "+strings.Join(s.Columns, ","))
	}
	if len(s.Preds) > 0 {
		preds := make([]string, len(s.Preds))
		for i, p := range s.Preds {
			preds[i] = p.String()
		}
		parts = append(parts, "where "+strings.Join(preds, " AND "))
	}
	if len(parts) == 0 {
		return "all columns"
	}
	return strings.Join(parts, " ")
}

// WireValue is a typed value in wire form, JSON-safe for the cluster RPC.
// Kind is "", "int", "float", "str" or "time"; the empty kind is null.
type WireValue struct {
	Kind string `json:"kind,omitempty"`
	Val  string `json:"val,omitempty"`
}

// FromValue captures a typed value in wire form.
func FromValue(v telco.Value) WireValue {
	switch v.Kind() {
	case telco.KindInt:
		return WireValue{Kind: "int", Val: v.Format()}
	case telco.KindFloat:
		return WireValue{Kind: "float", Val: v.Format()}
	case telco.KindString:
		return WireValue{Kind: "str", Val: v.Str()}
	case telco.KindTime:
		return WireValue{Kind: "time", Val: v.Format()}
	}
	return WireValue{}
}

// Value reconstructs the typed value.
func (w WireValue) Value() telco.Value {
	var k telco.Kind
	switch w.Kind {
	case "":
		return telco.Null
	case "int":
		k = telco.KindInt
	case "float":
		k = telco.KindFloat
	case "str":
		return telco.String(w.Val) // ParseValue("") would null an empty string
	case "time":
		k = telco.KindTime
	}
	v, err := telco.ParseValue(k, w.Val)
	if err != nil {
		return telco.Null
	}
	return v
}

// Cell is the mergeable state of one aggregate within one group.
type Cell struct {
	// Seen marks that at least one non-null value contributed; an unseen
	// SUM/MIN/MAX finalizes to NULL, mirroring the SQL aggregate states.
	Seen bool `json:"seen,omitempty"`
	// Count is the COUNT contribution (rows for COUNT(*), non-null values
	// for COUNT(col)).
	Count int64 `json:"count,omitempty"`
	// ISum is the exact integer SUM contribution.
	ISum int64 `json:"isum,omitempty"`
	// Min and Max are the extreme values observed.
	Min WireValue `json:"min"`
	Max WireValue `json:"max"`
}

// Partial is one group's partial aggregate state — the unit shards ship to
// the coordinator instead of rows.
type Partial struct {
	// Key orders and merges groups; it is the group value's wire form ("" for
	// the single implicit group of an ungrouped aggregate).
	Key string `json:"key"`
	// Group is the typed group value.
	Group WireValue `json:"group"`
	// Cells align with Spec.Aggs.
	Cells []Cell `json:"cells"`
}

// NewPartial returns a zeroed partial for the spec's aggregates.
func (s *Spec) NewPartial(group telco.Value) *Partial {
	return &Partial{Key: group.Format(), Group: FromValue(group), Cells: make([]Cell, len(s.Aggs))}
}

// AddRow folds one row into the partial. vals aligns with Spec.Aggs: the
// i'th entry is that aggregate's argument value (ignored for COUNT(*)). It
// is the row-at-a-time definition of the fold: the engine folds column
// arrays (core.aggAcc) and chunk metadata, and is held to this.
func (s *Spec) AddRow(p *Partial, vals []telco.Value) {
	for i, a := range s.Aggs {
		c := &p.Cells[i]
		if a.Fn == "COUNT" && a.Col == "" {
			c.Count++
			c.Seen = true
			continue
		}
		v := vals[i]
		if v.IsNull() {
			continue
		}
		switch a.Fn {
		case "COUNT":
			c.Count++
		case "SUM":
			c.ISum += v.Int64()
		case "MIN":
			if !c.Seen || v.Compare(c.Min.Value()) < 0 {
				c.Min = FromValue(v)
			}
		case "MAX":
			if !c.Seen || v.Compare(c.Max.Value()) > 0 {
				c.Max = FromValue(v)
			}
		}
		c.Seen = true
	}
}

// CanUseMeta reports whether the spec's aggregates are all answerable from
// chunk metadata (row counts and integer zone maps) alone: COUNT over any
// zoned (hence null-free) column or the whole row, MIN/MAX over zoned
// columns — a zone's presence implies the column holds only non-null
// integer values, so COUNT(col) is the row count and MIN/MAX are the zone
// bounds lifted into the column's kind. SUM always needs the column values.
// GroupBy always decodes.
func (s *Spec) CanUseMeta(zoned func(col string) bool) bool {
	if s.GroupBy != "" {
		return false
	}
	for _, a := range s.Aggs {
		switch a.Fn {
		case "COUNT":
			if a.Col != "" && !zoned(a.Col) {
				return false
			}
		case "MIN", "MAX":
			if !zoned(a.Col) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Merge folds src into dst key-wise and returns the result sorted by group
// key. Both lists must be in strictly increasing key order — what an
// engine's fold emits, what ReadPartials checks and what Merge returns — so
// one linear pass merges them, and a src merged into nothing is returned as
// it is. Merging is associative and commutative, so shard partials fold in
// any arrival order. Partials of one spec hold a cell per aggregate each;
// where two of a key disagree, only the cells both hold merge. The cells of
// dst's partials are updated in place.
func Merge(dst, src []Partial) []Partial {
	if len(dst) == 0 {
		return src
	}
	if len(src) == 0 {
		return dst
	}
	out := make([]Partial, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		d, s := &dst[i], &src[j]
		switch {
		case d.Key < s.Key:
			out = append(out, *d)
			i++
		case d.Key > s.Key:
			out = append(out, *s)
			j++
		default:
			mergeCells(d.Cells, s.Cells)
			out = append(out, *d)
			i, j = i+1, j+1
		}
	}
	out = append(out, dst[i:]...)
	return append(out, src[j:]...)
}

// mergeCells folds the cells of src into those of dst that both hold.
func mergeCells(dst, src []Cell) {
	for j := range min(len(dst), len(src)) {
		dc, sc := &dst[j], src[j]
		dc.Count += sc.Count
		dc.ISum += sc.ISum
		if sc.Seen {
			if !dc.Seen {
				dc.Min, dc.Max = sc.Min, sc.Max
			} else {
				if sc.Min.Value().Compare(dc.Min.Value()) < 0 {
					dc.Min = sc.Min
				}
				if sc.Max.Value().Compare(dc.Max.Value()) > 0 {
					dc.Max = sc.Max
				}
			}
			dc.Seen = true
		}
	}
}

// Finalize renders one aggregate cell to its SQL result value, mirroring
// the SQL engine's aggregate states: COUNT of nothing is 0, SUM/MIN/MAX of
// nothing is NULL, and a pushed-down SUM is always an exact integer.
func (a *Agg) Finalize(c *Cell) telco.Value {
	switch a.Fn {
	case "COUNT":
		return telco.Int(c.Count)
	case "SUM":
		if !c.Seen {
			return telco.Null
		}
		return telco.Int(c.ISum)
	case "MIN":
		if !c.Seen {
			return telco.Null
		}
		return c.Min.Value()
	case "MAX":
		if !c.Seen {
			return telco.Null
		}
		return c.Max.Value()
	}
	return telco.Null
}

// Validate rejects malformed specs at the RPC boundary. Every predicate of
// a spec it accepts has a non-null Literal: a literal of its kind that does
// not parse would otherwise reject every row.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	for _, p := range s.Preds {
		switch p.Op {
		case "=", "!=", "<", "<=", ">", ">=":
		default:
			return fmt.Errorf("scanspec: bad predicate op %q", p.Op)
		}
		switch p.Kind {
		case "int", "float", "str":
		default:
			return fmt.Errorf("scanspec: bad predicate literal kind %q", p.Kind)
		}
		if p.Literal().IsNull() {
			return fmt.Errorf("scanspec: predicate literal %q is not a valid %s", p.Val, p.Kind)
		}
	}
	for _, a := range s.Aggs {
		switch a.Fn {
		case "COUNT", "SUM", "MIN", "MAX":
		default:
			return fmt.Errorf("scanspec: bad aggregate %q", a.Fn)
		}
		if a.Col == "" && a.Fn != "COUNT" {
			return fmt.Errorf("scanspec: %s requires a column", a.Fn)
		}
	}
	return nil
}
