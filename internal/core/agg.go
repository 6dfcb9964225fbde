package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

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
	env, plan, err := e.planScan(&w, geo.Rect{}, tables, src, prof)
	if err != nil {
		return nil, err
	}

	// Partial-aggregate merge is associative and commutative over the
	// pushdown-eligible aggregates (COUNT, integer SUM, MIN, MAX), so each
	// worker folds its units into a private accumulator with no locking at
	// all and the per-worker partial sets Merge at the end. The worker-order
	// merge and the final sort-by-key make the output independent of
	// scheduling. A pool of one is one accumulator.
	accs := make([]*aggAcc, max(1, min(e.scanWorkers(), len(plan.units))))
	for i := range accs {
		if accs[i], err = newAggAcc(spec, schema, w); err != nil {
			return nil, err
		}
	}
	c := e.codec()
	err = e.runUnits(ctx, e.scanWorkers(), len(plan.units), prof, func(sw *scanWorker, i int) (any, error) {
		return nil, e.walkLeaf(plan.units[i].ref, c, env.pr, accs[sw.id], sw.prof)
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
	w      telco.TimeRange // the scan window
	tf     timeFilter      // w and the spec's exact window, as an array filter

	predCol []int // stored position per predicate
	aggCol  []int // stored position per aggregate argument, -1 for COUNT(*)

	lay   aggLayout // without the timestamp, unless the spec reads it
	layTS aggLayout // with the timestamp for window filtering

	// Groups are interned: by wire form — the merge key, so two values that
	// render alike share a group — with a shortcut for integer group columns
	// and, per batch, one lookup per dictionary entry of a string column.
	byKey map[string]int32
	byInt map[int64]int32
	keys  []telco.Value // group value per ordinal
	cells []aggCell     // ordinal*len(spec.Aggs) + aggregate
	ext   []telco.Value // alongside cells when the spec has a MIN or MAX: its running extreme

	hasExt  bool    // the spec has a MIN or MAX
	ord     []int32 // per selected row of the batch being folded
	codeOrd []int32 // per dictionary entry, -1 until a row uses it
}

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
func newAggAcc(spec *ScanSpec, schema *telco.Schema, w telco.TimeRange) (*aggAcc, error) {
	a := &aggAcc{
		spec:   spec,
		schema: schema,
		w:      w,
		tf:     newTimeFilter(w, spec),
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
	for i, g := range spec.Aggs {
		a.hasExt = a.hasExt || g.Fn == "MIN" || g.Fn == "MAX"
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

// prune is the aggregate's own chunk test: the spec's exact row window,
// then its predicates against the column zone maps.
func (a *aggAcc) prune(ch *segment.Chunk) pruneReason {
	if a.exactWindowSkip(ch) {
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

// exactWindowSkip reports whether the spec's exact row window (and its
// null-timestamp rule) proves no row of the chunk passes the row-level
// time filter.
func (a *aggAcc) exactWindowSkip(ch *segment.Chunk) bool {
	if ch.HasTimeGaps() {
		if !a.spec.RequireTS {
			return false // null-ts rows pass unconditionally
		}
		if ch.MinTS > ch.MaxTS {
			return true // only null-ts rows, all dropped
		}
	} else if ch.Rows == 0 {
		return false
	}
	return !a.spec.Window.OverlapsRange(ch.MinTS, ch.MaxTS)
}

// chunkAllInWindow reports whether every row of the chunk provably passes
// the row-level time filter (scan window, exact window and the
// null-timestamp rule), so per-row timestamp checks can be skipped.
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
	if !a.w.Contains(time.Unix(0, ch.MinTS)) || !a.w.Contains(time.Unix(0, ch.MaxTS)) {
		return false
	}
	return a.spec.Window.ContainsRange(ch.MinTS, ch.MaxTS)
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
	first := int(a.group(telco.Null)) * len(a.spec.Aggs)
	for i, g := range a.spec.Aggs {
		at := first + i
		switch g.Fn {
		case "COUNT":
			a.cells[at].count += ch.Rows
		case "MIN":
			a.observe(at, zoneValue(a.schema.Fields[a.aggCol[i]].Kind, ch.Cols[a.aggCol[i]].Min), -1)
		case "MAX":
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
// aggregate then runs down its argument's array.
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
	n := len(a.spec.Aggs)
	for i, g := range a.spec.Aggs {
		ci := lay.aggIdx[i]
		if ci < 0 { // COUNT(*)
			for _, o := range ord {
				c := &a.cells[int(o)*n+i]
				c.count++
				c.seen = true
			}
			continue
		}
		col := &b.Cols[ci]
		for j, r := range sel {
			if col.Null(int(r)) {
				continue
			}
			at := int(ord[j])*n + i
			switch g.Fn {
			case "COUNT":
				a.cells[at].count++
			case "SUM":
				a.cells[at].isum += col.Ints[r]
			case "MIN":
				a.observe(at, col.Value(int(r)), -1)
			case "MAX":
				a.observe(at, col.Value(int(r)), +1)
			}
			a.cells[at].seen = true
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
		for j, r := range sel {
			if c.Null(int(r)) {
				ord[j] = a.group(telco.Null)
				continue
			}
			x := c.Ints[r]
			o, ok := a.byInt[x]
			if !ok {
				o = a.group(telco.Int(x))
				a.byInt[x] = o
			}
			ord[j] = o
		}
	default:
		for j, r := range sel {
			ord[j] = a.group(c.Value(int(r)))
		}
	}
	return ord
}

// group returns (creating on first use) the ordinal of one group value.
func (a *aggAcc) group(g telco.Value) int32 {
	key := g.Format()
	if o, ok := a.byKey[key]; ok {
		return o
	}
	o := int32(len(a.keys))
	a.byKey[key] = o
	a.keys = append(a.keys, g)
	n := len(a.spec.Aggs)
	a.cells = slices.Grow(a.cells, n)[:len(a.cells)+n]
	if a.hasExt {
		a.ext = slices.Grow(a.ext, n)[:len(a.cells)]
	}
	return o
}

// partials renders the accumulated groups as partials sorted by group key.
func (a *aggAcc) partials() []scanspec.Partial {
	out := make([]scanspec.Partial, 0, len(a.keys))
	for o, g := range a.keys {
		p := a.spec.NewPartial(g)
		for i := range p.Cells {
			at := o*len(p.Cells) + i
			c, cell := a.cells[at], &p.Cells[i]
			cell.Seen, cell.Count, cell.ISum = c.seen, c.count, c.isum
			if !c.seen {
				continue
			}
			switch a.spec.Aggs[i].Fn {
			case "MIN":
				cell.Min = scanspec.FromValue(a.ext[at])
			case "MAX":
				cell.Max = scanspec.FromValue(a.ext[at])
			}
		}
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
