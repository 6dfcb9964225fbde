package core

import (
	"bytes"
	"time"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// This file holds the row-level filters of a scan in their array form: each
// narrows a column batch's selection vector, reading the column's typed
// array once, so a chunk's rows are tested without a telco.Value ever being
// built. Both are compiled once per scan and answer exactly as their
// row-at-a-time definitions — scanspec.Pred.Eval and keepRowTS — do.

// getBatch hands out a column batch from the engine's pool: a scan worker
// decodes every chunk it walks into one, and batches outlive queries, so
// steady-state decoding allocates nothing.
func (e *Engine) getBatch() *telco.Batch {
	if b, ok := e.batches.Get().(*telco.Batch); ok {
		return b
	}
	return new(telco.Batch)
}

// putBatch returns a batch to the pool, dropping its view of the cached
// chunk bytes so an idle batch pins none.
func (e *Engine) putBatch(b *telco.Batch) {
	for i := range b.Cols {
		b.Cols[i].Arena = nil
	}
	e.batches.Put(b)
}

// batchPred is a scanspec.Pred compiled against one column of a batch
// layout: the literal parsed once, the operator as the set of three-way
// comparison outcomes that satisfy it.
type batchPred struct {
	col  int
	lit  telco.Value
	want [3]bool // indexed by Compare's result + 1
}

func compilePred(p scanspec.Pred, col int) batchPred {
	bp := batchPred{col: col, lit: p.Literal()}
	switch p.Op {
	case "=":
		bp.want = [3]bool{false, true, false}
	case "!=":
		bp.want = [3]bool{true, false, true}
	case "<":
		bp.want = [3]bool{true, false, false}
	case "<=":
		bp.want = [3]bool{true, true, false}
	case ">":
		bp.want = [3]bool{false, false, true}
	case ">=":
		bp.want = [3]bool{false, true, true}
	}
	return bp
}

// filter narrows b's selection to the rows satisfying the predicate. A null
// never does. Like kinds compare over the typed array — string columns once
// per dictionary entry, the rows then by their codes — and a comparison
// across kinds follows telco.Value.Compare: numbers by value, anything else
// by kind, which is one answer for the whole column. A column that came
// run-length coded in long runs is decided a run at a time: one test
// accepts or skips the whole run.
func (p *batchPred) filter(b *telco.Batch) {
	c := &b.Cols[p.col]
	ck, lk := c.Kind, p.lit.Kind()
	runs := len(c.Runs) > 0 && len(c.Runs)*minRunLen <= b.N
	var test func(i int) bool // the predicate on one row
	switch {
	case lk == telco.KindNull:
		b.SelectNone()
		return
	case ck == telco.KindInt && lk == telco.KindInt:
		lit := p.lit.Int64()
		if !runs {
			narrowCmp(b, c, c.Ints, lit, p.want)
			return
		}
		test = func(i int) bool { return !c.Null(i) && p.want[cmp3(c.Ints[i], lit)] }
	case ck == telco.KindFloat && (lk == telco.KindFloat || lk == telco.KindInt):
		lit := p.lit.Float64()
		if !runs {
			narrowCmp(b, c, c.Floats, lit, p.want)
			return
		}
		test = func(i int) bool { return !c.Null(i) && p.want[cmp3(c.Floats[i], lit)] }
	case ck == telco.KindInt && lk == telco.KindFloat:
		lit := p.lit.Float64()
		test = func(i int) bool { return !c.Null(i) && p.want[cmp3(float64(c.Ints[i]), lit)] }
	case ck == telco.KindString && lk == telco.KindString:
		// One comparison per dictionary entry; a plain column is its own
		// dictionary, an entry per row.
		lit := []byte(p.lit.Str())
		pass := c.Work(len(c.Starts)) // 1: the entry satisfies the predicate
		for e := range pass {
			pass[e] = 0
			if key := c.Entry(e); len(key) > 0 && p.want[bytes.Compare(key, lit)+1] {
				pass[e] = 1
			}
		}
		if c.Codes == nil {
			test = func(i int) bool { return pass[i] == 1 }
		} else {
			test = func(i int) bool { return pass[c.Codes[i]] == 1 }
		}
	default:
		k := 0
		if ck > lk {
			k = 2
		}
		if !p.want[k] {
			b.SelectNone()
			return
		}
		test = func(i int) bool { return !c.Null(i) }
	}
	if runs {
		narrowRuns(b, c.Runs, test)
	} else {
		b.Keep(test)
	}
}

// minRunLen is the mean run length from which a filter decides a
// run-length coded column run by run instead of row by row.
const minRunLen = 4

// narrowRuns keeps the selected rows of the runs whose first row passes
// test; ends holds each run's exclusive end row. A run is tested when the
// first selected row inside it comes up, runs without one never.
func narrowRuns(b *telco.Batch, ends []uint32, test func(first int) bool) {
	sel := b.Rows()
	out := sel[:0]
	run, first, decided, ok := 0, uint32(0), false, false
	for _, i := range sel {
		for i >= ends[run] {
			first, decided = ends[run], false
			run++
		}
		if !decided {
			ok, decided = test(int(first)), true
		}
		if ok {
			out = append(out, i)
		}
	}
	b.SetSelection(out)
}

// cmp3 is the three-way comparison telco.Value.Compare makes of two numbers
// (a NaN compares equal to everything), shifted to 0, 1, 2.
func cmp3[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return 0
	case a > b:
		return 2
	}
	return 1
}

// narrowCmp keeps the selected non-null rows whose value compares to lit
// with one of the wanted outcomes.
func narrowCmp[T int64 | float64](b *telco.Batch, c *telco.Column, vals []T, lit T, want [3]bool) {
	sel := b.Rows()
	out := sel[:0]
	nulls := c.NullCount > 0
	for _, i := range sel {
		if want[cmp3(vals[i], lit)] && !(nulls && c.Null(int(i))) {
			out = append(out, i)
		}
	}
	b.SetSelection(out)
}

// timeFilter is the row-level time filter of a (possibly spec-carrying)
// scan in array form: rows inside the scan's one window pass, and rows
// without a timestamp pass unless the spec's WHERE clause carried a
// timestamp conjunct. The same window prunes the scan's chunks.
type timeFilter struct {
	win       *scanspec.TimeWindow
	requireTS bool
}

// newTimeFilter builds the filter of a scan over range w: w in the whole
// seconds rows carry — a bound with a fractional second admits the next
// whole second onward — narrowed by the spec's window.
func newTimeFilter(w telco.TimeRange, spec *ScanSpec) timeFilter {
	ceil := func(t time.Time) int64 {
		if t.Nanosecond() > 0 {
			return t.Unix() + 1
		}
		return t.Unix()
	}
	tf := timeFilter{win: &scanspec.TimeWindow{From: ceil(w.From), HasFrom: true, To: ceil(w.To), HasTo: true}}
	if spec != nil {
		tf.win, tf.requireTS = tf.win.Intersect(spec.Window), spec.RequireTS
	}
	return tf
}

// filter narrows b's selection by the timestamp column at ts (-1: the
// layout has none, every row counts as without a timestamp).
func (tf *timeFilter) filter(b *telco.Batch, ts int) {
	if ts < 0 {
		if tf.requireTS {
			b.SelectNone()
		}
		return
	}
	c := &b.Cols[ts]
	nulls := c.NullCount > 0
	sel := b.Rows()
	out := sel[:0]
	for _, i := range sel {
		if nulls && c.Null(int(i)) {
			if !tf.requireTS {
				out = append(out, i)
			}
		} else if tf.win.Contains(c.Ints[i]) {
			out = append(out, i)
		}
	}
	b.SetSelection(out)
}
