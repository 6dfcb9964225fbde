package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"spate/internal/geo"
	"spate/internal/scanspec"
	"spate/internal/segment"
	"spate/internal/telco"
)

// ScanSpec is the pushdown contract the SQL layer compiles WHERE clauses
// and simple aggregates into; see package scanspec for the semantics.
type ScanSpec = scanspec.Spec

// AggregatePartials evaluates a pushed-down aggregate spec over the
// window's stored rows and the unsealed memtable, returning per-group
// partial aggregates sorted by group key. It scans exactly the leaves the
// row path (ScanTablesSpec) would and applies the same row-level filters, so
// finalizing the partials reproduces row-materialized execution bit for
// bit — but only the spec's referenced columns are ever materialized (on v3
// leaves only their column streams decode), and zone-decidable chunks are
// answered from metadata alone.
func (e *Engine) AggregatePartials(ctx context.Context, w telco.TimeRange, table string, spec *ScanSpec) ([]scanspec.Partial, error) {
	if !spec.IsAggregate() {
		return nil, fmt.Errorf("core: AggregatePartials needs an aggregate spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	schema := telco.SchemaByName(table)
	if schema == nil {
		return nil, fmt.Errorf("core: unknown schema %q", table)
	}
	tables := []string{table}
	src := e.capture(w, tables)
	prof := ProfileFromContext(ctx)
	tf := newTimeFilter(w, spec)
	env, plan, err := e.planScan(tf.win, geo.Rect{}, tables, src, prof)
	if err != nil {
		return nil, err
	}

	// Partial-aggregate merge is associative and commutative over the
	// pushdown-eligible aggregates (COUNT, integer SUM, MIN, MAX), so each
	// worker folds its units into a private accumulator with no locking at
	// all and the per-worker partial sets Merge at the end. Each set is in
	// key order and so is every merge of them, which makes the output
	// independent of scheduling. A pool of one is one accumulator.
	accs := make([]*aggAcc, max(1, min(e.scanWorkers(), len(plan.units))))
	for i := range accs {
		if accs[i], err = newAggAcc(spec, schema, tf); err != nil {
			return nil, err
		}
	}
	err = e.runUnits(ctx, e.scanWorkers(), len(plan.units), prof, func(sw *scanWorker, i int) (any, error) {
		return nil, e.walkLeaf(plan.units[i].ref, env.pr, accs[sw.id], sw.prof)
	}, func(int, any) error { return nil })
	if err != nil {
		return nil, err
	}
	if len(src.memTabs) > 0 {
		b := e.getBatch()
		defer e.putBatch(b)
		for _, mt := range src.memTabs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if prof != nil {
				prof.MemRows += mt.tab.Len()
			}
			accs[0].foldMem(b, mt.tab)
		}
	}
	var parts []scanspec.Partial
	for _, acc := range accs {
		parts = scanspec.Merge(parts, acc.partials())
	}
	if prof != nil {
		prof.AggPartials += len(parts)
	}
	return parts, nil
}

// aggLayout is one projection a fold reads batches in, with the positions
// of everything the fold touches inside it.
type aggLayout struct {
	projection
	checkTS bool        // rows still need the row-level time filter
	tsIdx   int         // -1 when the layout carries no timestamp
	grpIdx  int         // -1 when ungrouped
	preds   []batchPred // the spec's predicates, compiled against the layout
	aggIdx  []int       // per aggregate argument, -1 for COUNT(*)
}

// aggAcc is the schema-resolved fold state of one pushed-down aggregate:
// which stored columns the predicates and aggregate arguments live at (for
// zone-map decisions), the two layouts a fold may read — the referenced
// columns alone, and with the timestamp for chunks that need the row-level
// window filter — and the per-group state accumulated so far, dense: groups
// are ordinals, their aggregate cells one slab. It is the leaf walk's
// aggregating sink.
type aggAcc struct {
	spec   *ScanSpec
	schema *telco.Schema
	tf     timeFilter // the scan's window, which the walk prunes chunks by too

	predCol []int // stored position per predicate
	aggCol  []int // stored position per aggregate argument, -1 for COUNT(*)

	lay   aggLayout // without the timestamp, unless the spec reads it
	layTS aggLayout // with the timestamp for window filtering

	// Groups are interned: by wire form — the merge key, so two values that
	// render alike share a group — except the keys of an integer group
	// column, which render alike only when equal: those go by value, through
	// a dense table over keys 0 to denseKeys-1 and a map outside it. A
	// string column looks up, per batch, each dictionary entry once.
	byKey map[string]int32
	byInt map[int64]int32
	dense []int32              // ordinal+1 per integer key, 0 until a row uses it
	keys  []scanspec.WireValue // group value per ordinal; its Val is the merge key
	cells []aggCell            // ordinal*len(spec.Aggs) + aggregate
	ext   []telco.Value        // alongside cells when the spec has a MIN or MAX: its running extreme

	ops     []aggOp // per aggregate, its function
	hasExt  bool    // the spec has a MIN or MAX
	ord     []int32 // per selected row of the batch being folded
	codeOrd []int32 // per dictionary entry, -1 until a row uses it
}

// aggOp is an aggregate's function, resolved from its name once.
type aggOp uint8

const (
	opCount aggOp = iota
	opSum
	opMin
	opMax
)

var aggOps = map[string]aggOp{"COUNT": opCount, "SUM": opSum, "MIN": opMin, "MAX": opMax}

// aggCell is the running state of one aggregate within one group. With the
// extreme a MIN or MAX has seen (aggAcc.ext) it renders to a scanspec.Cell.
type aggCell struct {
	seen        bool
	count, isum int64
}

// newAggAcc resolves the spec against the table schema. Unlike the row
// path — where the spec is a prefilter and the SQL engine re-evaluates —
// the aggregate path is authoritative, so an unresolvable column is an
// error rather than a skipped predicate.
func newAggAcc(spec *ScanSpec, schema *telco.Schema, tf timeFilter) (*aggAcc, error) {
	a := &aggAcc{
		spec:   spec,
		schema: schema,
		tf:     tf,
		byKey:  make(map[string]int32),
		byInt:  make(map[int64]int32),
	}
	resolve := func(col string) (int, error) {
		i := schema.FieldIndex(col)
		if i < 0 {
			return -1, fmt.Errorf("core: aggregate pushdown: no column %q in %s", col, schema.Name)
		}
		return i, nil
	}
	a.predCol = make([]int, len(spec.Preds))
	for i, p := range spec.Preds {
		ci, err := resolve(p.Col)
		if err != nil {
			return nil, err
		}
		a.predCol[i] = ci
	}
	a.aggCol = make([]int, len(spec.Aggs))
	a.ops = make([]aggOp, len(spec.Aggs))
	for i, g := range spec.Aggs {
		op, ok := aggOps[g.Fn]
		if !ok {
			return nil, fmt.Errorf("core: aggregate pushdown: no aggregate %q", g.Fn)
		}
		a.ops[i] = op
		a.hasExt = a.hasExt || op == opMin || op == opMax
		if g.Col == "" {
			a.aggCol[i] = -1
			continue
		}
		ci, err := resolve(g.Col)
		if err != nil {
			return nil, err
		}
		if g.Fn == "SUM" && schema.Fields[ci].Kind != telco.KindInt {
			// Integer sums are exact under any association order;
			// floating-point sums are not, so they never push down.
			return nil, fmt.Errorf("core: aggregate pushdown: SUM over non-integer column %q", g.Col)
		}
		a.aggCol[i] = ci
	}
	if spec.GroupBy != "" {
		if _, err := resolve(spec.GroupBy); err != nil {
			return nil, err
		}
	}
	a.lay = a.resolve(spec.Referenced(), false)
	a.layTS = a.resolve(append(spec.Referenced(), telco.AttrTS), true)
	return a, nil
}

// resolve builds the fold's positions inside the projection onto names.
func (a *aggAcc) resolve(names []string, checkTS bool) aggLayout {
	l := aggLayout{projection: newProjection(a.schema, names, false), checkTS: checkTS}
	l.tsIdx = l.out.FieldIndex(telco.AttrTS)
	l.grpIdx = l.out.FieldIndex(a.spec.GroupBy)
	l.preds = make([]batchPred, len(a.spec.Preds))
	for i, p := range a.spec.Preds {
		l.preds[i] = compilePred(p, l.out.FieldIndex(p.Col))
	}
	l.aggIdx = make([]int, len(a.spec.Aggs))
	for i, g := range a.spec.Aggs {
		l.aggIdx[i] = l.out.FieldIndex(g.Col)
	}
	return l
}

// prune is the aggregate's own chunk test, beyond the walk's window test:
// a chunk whose rows without a timestamp the spec drops holds a passing row
// only inside its timestamped range; then the spec's predicates against the
// column zone maps.
func (a *aggAcc) prune(ch *segment.Chunk) pruneReason {
	if a.spec.RequireTS && ch.HasTimeGaps() && (ch.MinTS > ch.MaxTS || !a.tf.win.OverlapsRange(ch.TSSeconds())) {
		return pruneZone
	}
	if zonePrune(a.spec.Preds, a.predCol, a.schema, ch) {
		return prunePred
	}
	return pruneNone
}

// layout decides how a surviving chunk folds. A v3 chunk lying wholly
// inside the window is answered from its metadata (nil) when every row
// provably matches and the aggregates are zone-derivable, and otherwise
// decodes without the timestamp column; v1/v2 chunks and legacy blobs
// (nil ch) have no column directory and always take the row-level time
// filter.
func (a *aggAcc) layout(ch *segment.Chunk) *projection {
	if ch == nil || len(ch.Cols) == 0 || !a.chunkAllInWindow(ch) {
		return &a.layTS.projection
	}
	if a.chunkAllMatch(ch) && a.metaOK(ch) {
		a.addMeta(ch)
		return nil
	}
	return &a.lay.projection
}

// rows folds a decoded chunk laid out as p, whichever of its two
// projections layout handed out.
func (a *aggAcc) rows(p *projection, b *telco.Batch) error {
	lay := &a.layTS
	if p == &a.lay.projection {
		lay = &a.lay
	}
	a.fold(b, lay)
	return nil
}

// chunkAllInWindow reports whether every row of the chunk provably passes
// the row-level time filter (the scan's window and the null-timestamp
// rule), so per-row timestamp checks can be skipped.
func (a *aggAcc) chunkAllInWindow(ch *segment.Chunk) bool {
	if ch.HasTimeGaps() {
		if a.spec.RequireTS {
			return false
		}
		if ch.MinTS > ch.MaxTS {
			return true // no timestamped rows at all
		}
	} else if ch.Rows == 0 {
		return true
	}
	return a.tf.win.CoversRange(ch.TSSeconds())
}

// chunkAllMatch reports whether the zone maps prove every row satisfies
// every predicate (vacuously true without predicates).
func (a *aggAcc) chunkAllMatch(ch *segment.Chunk) bool {
	for pi, p := range a.spec.Preds {
		ci := a.predCol[pi]
		if ci >= len(ch.Cols) || a.schema.Fields[ci].Kind != telco.KindInt {
			return false
		}
		cm := ch.Cols[ci]
		if !cm.HasZone || !p.ZoneAllMatch(cm.Min, cm.Max) {
			return false
		}
	}
	return true
}

// metaOK reports whether the chunk's metadata alone answers every
// aggregate (see Spec.CanUseMeta).
func (a *aggAcc) metaOK(ch *segment.Chunk) bool {
	return a.spec.CanUseMeta(func(col string) bool {
		ci := a.schema.FieldIndex(col)
		if ci < 0 || ci >= len(ch.Cols) || !ch.Cols[ci].HasZone {
			return false
		}
		switch a.schema.Fields[ci].Kind {
		case telco.KindInt, telco.KindFloat, telco.KindTime:
			// Integer zone bounds lift exactly into these kinds.
			return true
		}
		return false
	})
}

// addMeta folds a whole chunk, every row of which provably matches, from
// its metadata: the row count answers COUNT — a zoned column holds no null —
// and the integer zone bounds, lifted into the column's kind, are the
// chunk's MIN and MAX (see Spec.CanUseMeta: SUM and grouped specs decode).
func (a *aggAcc) addMeta(ch *segment.Chunk) {
	first := int(a.group(telco.Null)) * len(a.ops)
	for i, op := range a.ops {
		at := first + i
		switch op {
		case opCount:
			a.cells[at].count += ch.Rows
		case opMin:
			a.observe(at, zoneValue(a.schema.Fields[a.aggCol[i]].Kind, ch.Cols[a.aggCol[i]].Min), -1)
		case opMax:
			a.observe(at, zoneValue(a.schema.Fields[a.aggCol[i]].Kind, ch.Cols[a.aggCol[i]].Max), +1)
		}
		a.cells[at].seen = true
	}
}

// zoneValue lifts an integer zone bound into the column's value kind.
func zoneValue(k telco.Kind, x int64) telco.Value {
	if k == telco.KindFloat {
		return telco.Float(float64(x))
	}
	v, _ := telco.ValueOfInt(k, x) // a time the wire digits do not name is Null
	return v
}

// observe offers v to the MIN (sign -1) or MAX (sign +1) cell at.
func (a *aggAcc) observe(at int, v telco.Value, sign int) {
	if !a.cells[at].seen || v.Compare(a.ext[at])*sign > 0 {
		a.ext[at] = v
	}
}

// fold folds the batch laid out as lay: the row-level time filter — unless
// chunkAllInWindow proved it for the whole chunk — and the predicates narrow
// the selection, each surviving row is given its group's ordinal, and every
// aggregate then runs down its argument's array in a loop of its own, which
// checks nullness only when the column holds a null.
func (a *aggAcc) fold(b *telco.Batch, lay *aggLayout) {
	if lay.checkTS {
		a.tf.filter(b, lay.tsIdx)
	}
	for i := range lay.preds {
		lay.preds[i].filter(b)
	}
	sel := b.Rows()
	if len(sel) == 0 {
		return
	}
	ord := a.groupRows(b, lay.grpIdx, sel)
	n := len(a.ops)
	for i, op := range a.ops {
		var col *telco.Column
		if ci := lay.aggIdx[i]; ci >= 0 {
			col = &b.Cols[ci]
		}
		// A string column's nulls are its blank entries, which NullCount
		// does not count.
		nulls := col != nil && (col.Kind == telco.KindString || col.NullCount > 0)
		switch {
		case op == opCount && !nulls: // COUNT(*), or a column without nulls
			for _, o := range ord {
				c := &a.cells[int(o)*n+i]
				c.count++
				c.seen = true
			}
		case op == opSum && !nulls:
			for j, r := range sel {
				c := &a.cells[int(ord[j])*n+i]
				c.isum += col.Ints[r]
				c.seen = true
			}
		default:
			for j, r := range sel {
				if nulls && col.Null(int(r)) {
					continue
				}
				at := int(ord[j])*n + i
				switch op {
				case opCount:
					a.cells[at].count++
				case opSum:
					a.cells[at].isum += col.Ints[r]
				case opMin:
					a.observe(at, col.Value(int(r)), -1)
				case opMax:
					a.observe(at, col.Value(int(r)), +1)
				}
				a.cells[at].seen = true
			}
		}
	}
}

// foldMem folds one full-width memtable table: loaded into a batch of the
// fold's layout like every other source of rows, then folded with the
// row-level time filter.
func (a *aggAcc) foldMem(b *telco.Batch, tab *telco.Table) {
	b.SetRows(a.layTS.full, a.layTS.cols, tab.Rows, true)
	a.fold(b, &a.layTS)
}

// groupRows returns each selected row's group ordinal.
func (a *aggAcc) groupRows(b *telco.Batch, grpIdx int, sel []uint32) []int32 {
	if cap(a.ord) < len(sel) {
		a.ord = make([]int32, len(sel), b.N)
	}
	ord := a.ord[:len(sel)]
	if grpIdx < 0 {
		o := a.group(telco.Null)
		for j := range ord {
			ord[j] = o
		}
		return ord
	}
	c := &b.Cols[grpIdx]
	switch c.Kind {
	case telco.KindString:
		// One group lookup per dictionary entry the rows use.
		if cap(a.codeOrd) < len(c.Starts) {
			a.codeOrd = make([]int32, len(c.Starts))
		}
		codeOrd := a.codeOrd[:len(c.Starts)]
		for e := range codeOrd {
			codeOrd[e] = -1
		}
		for j, r := range sel {
			e := r
			if c.Codes != nil {
				e = c.Codes[r]
			}
			if codeOrd[e] < 0 {
				if key := c.Entry(int(e)); len(key) == 0 {
					codeOrd[e] = a.group(telco.Null)
				} else if o, ok := a.byKey[string(key)]; ok {
					codeOrd[e] = o
				} else {
					codeOrd[e] = a.group(telco.String(string(key)))
				}
			}
			ord[j] = codeOrd[e]
		}
	case telco.KindInt:
		dense := a.dense
		for j, r := range sel {
			if c.Null(int(r)) {
				ord[j] = a.group(telco.Null)
				continue
			}
			if x := c.Ints[r]; uint64(x) < uint64(len(dense)) && dense[x] > 0 {
				ord[j] = dense[x] - 1 // intGroup's dense hit, inline
			} else {
				ord[j] = a.intGroup(x)
				dense = a.dense
			}
		}
	default:
		for j, r := range sel {
			ord[j] = a.group(c.Value(int(r)))
		}
	}
	return ord
}

// denseKeys bounds the dense table of integer group keys: keys 0 to
// denseKeys-1 (cell ids, hours, small codes) find their ordinal by index,
// the table growing to the largest one seen; any other key goes through
// byInt.
const denseKeys = 1 << 16

// intGroup returns (creating on first use) the ordinal of integer key x.
func (a *aggAcc) intGroup(x int64) int32 {
	if uint64(x) < denseKeys {
		if x < int64(len(a.dense)) && a.dense[x] > 0 {
			return a.dense[x] - 1
		}
		o := a.newGroup(telco.Int(x))
		if x >= int64(len(a.dense)) {
			a.dense = slices.Grow(a.dense, int(x)+1-len(a.dense))[:x+1]
		}
		a.dense[x] = o + 1
		return o
	}
	o, ok := a.byInt[x]
	if !ok {
		o = a.newGroup(telco.Int(x))
		a.byInt[x] = o
	}
	return o
}

// group returns (creating on first use) the ordinal of one group value.
func (a *aggAcc) group(g telco.Value) int32 {
	key := g.Format()
	if o, ok := a.byKey[key]; ok {
		return o
	}
	o := a.newGroup(g)
	a.byKey[key] = o
	return o
}

// newGroup adds a group no ordinal stands for yet and returns its ordinal.
func (a *aggAcc) newGroup(g telco.Value) int32 {
	o := int32(len(a.keys))
	a.keys = append(a.keys, scanspec.FromValue(g))
	n := len(a.spec.Aggs)
	a.cells = slices.Grow(a.cells, n)[:len(a.cells)+n]
	if a.hasExt {
		a.ext = slices.Grow(a.ext, n)[:len(a.cells)]
	}
	return o
}

// partials renders the accumulated groups as partials in strictly
// increasing key order — what scanspec.Merge assumes and ReadPartials
// checks — sorting ordinals on their keys and taking every partial's cells
// from one slab.
func (a *aggAcc) partials() []scanspec.Partial {
	order := make([]int32, len(a.keys))
	for o := range order {
		order[o] = int32(o)
	}
	slices.SortFunc(order, func(x, y int32) int { return strings.Compare(a.keys[x].Val, a.keys[y].Val) })
	n := len(a.spec.Aggs)
	cells := make([]scanspec.Cell, len(order)*n)
	out := make([]scanspec.Partial, len(order))
	for i, o := range order {
		p := &out[i]
		p.Key, p.Group = a.keys[o].Val, a.keys[o]
		p.Cells = cells[i*n : (i+1)*n : (i+1)*n]
		for j := range p.Cells {
			at := int(o)*n + j
			c, cell := a.cells[at], &p.Cells[j]
			cell.Seen, cell.Count, cell.ISum = c.seen, c.count, c.isum
			if !c.seen {
				continue
			}
			switch a.ops[j] {
			case opMin:
				cell.Min = scanspec.FromValue(a.ext[at])
			case opMax:
				cell.Max = scanspec.FromValue(a.ext[at])
			}
		}
	}
	return out
}
