package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"spate/internal/compress"
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
// row path (ScanTables) would and applies the same row-level filters, so
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
	e.mu.RLock()
	leaves := e.rowLeaves(w)
	memt, memAfter := e.memAfterLocked()
	var memTabs []memTab
	if memt != nil {
		memTabs = collectMemTabs(memt, w, []string{table}, memAfter)
	}
	e.mu.RUnlock()
	prof := ProfileFromContext(ctx)
	c := e.codec()
	workers := e.scanWorkers()

	var parts []scanspec.Partial
	if workers <= 1 {
		// Sequential path: one accumulator folds every leaf in order.
		acc, err := newAggAcc(spec, schema)
		if err != nil {
			return nil, err
		}
		for _, l := range leaves {
			if l.decayed || l.refs == nil {
				if prof != nil && l.decayed {
					prof.LeavesDecayed++
				}
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if prof != nil {
				prof.LeavesScanned++
			}
			ref, ok := l.refs[table]
			if !ok {
				continue
			}
			if err := e.aggLeafTable(ref, c, w, acc, prof); err != nil {
				return nil, err
			}
		}
		for _, mt := range memTabs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if prof != nil {
				prof.MemRows += mt.tab.Len()
			}
			acc.foldMem(mt.tab, w)
		}
		parts = acc.partials()
	} else {
		// Parallel path: partial-aggregate merge is associative and
		// commutative over the pushdown-eligible aggregates (COUNT, integer
		// SUM, MIN, MAX), so each worker folds its units into a private
		// accumulator with no locking at all and the per-worker partial
		// sets Merge at the end — the lock-free fast path. The worker-order
		// merge and the final sort-by-key make the output independent of
		// scheduling.
		accs := make([]*aggAcc, workers)
		var refs []string
		for _, l := range leaves {
			if l.decayed || l.refs == nil {
				if prof != nil && l.decayed {
					prof.LeavesDecayed++
				}
				continue
			}
			if prof != nil {
				prof.LeavesScanned++
			}
			if ref, ok := l.refs[table]; ok {
				refs = append(refs, ref)
			}
		}
		units := make([]scanUnit, len(refs))
		for i, ref := range refs {
			ref := ref
			units[i] = func(sw *scanWorker) (any, error) {
				acc := accs[sw.id]
				if acc == nil {
					var err error
					acc, err = newAggAcc(spec, schema)
					if err != nil {
						return nil, err
					}
					accs[sw.id] = acc
				}
				return nil, e.aggLeafTable(ref, c, w, acc, sw.prof)
			}
		}
		err := e.runUnits(ctx, workers, units, prof, func(int, any) error { return nil })
		if err != nil {
			return nil, err
		}
		if accs[0] == nil {
			accs[0], err = newAggAcc(spec, schema)
			if err != nil {
				return nil, err
			}
		}
		for _, mt := range memTabs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if prof != nil {
				prof.MemRows += mt.tab.Len()
			}
			accs[0].foldMem(mt.tab, w)
		}
		for _, acc := range accs {
			if acc != nil {
				parts = scanspec.Merge(parts, acc.partials())
			}
		}
	}
	if prof != nil {
		prof.AggPartials += len(parts)
	}
	return parts, nil
}

// aggLayout is one projection a per-row fold reads rows in, with the
// positions of everything the fold touches inside it.
type aggLayout struct {
	projection
	tsIdx   int   // -1 when the layout carries no timestamp
	grpIdx  int   // -1 when ungrouped
	predIdx []int // per predicate
	aggIdx  []int // per aggregate argument, -1 for COUNT(*)
}

// aggAcc is the schema-resolved fold state of one pushed-down aggregate:
// which stored columns the predicates and aggregate arguments live at (for
// zone-map decisions), the two layouts a per-row fold may read — the
// referenced columns alone, and with the timestamp for chunks that need
// the row-level window filter — and the per-group partials accumulated so
// far.
type aggAcc struct {
	spec   *ScanSpec
	schema *telco.Schema

	predCol []int // stored position per predicate
	aggCol  []int // stored position per aggregate argument, -1 for COUNT(*)

	rows   aggLayout // without the timestamp, unless the spec reads it
	rowsTS aggLayout // with the timestamp for window filtering

	vals   []telco.Value // per-row aggregate arguments, reused
	groups map[string]*scanspec.Partial
}

// newAggAcc resolves the spec against the table schema. Unlike the row
// path — where the spec is a prefilter and the SQL engine re-evaluates —
// the aggregate path is authoritative, so an unresolvable column is an
// error rather than a skipped predicate.
func newAggAcc(spec *ScanSpec, schema *telco.Schema) (*aggAcc, error) {
	a := &aggAcc{
		spec:   spec,
		schema: schema,
		vals:   make([]telco.Value, len(spec.Aggs)),
		groups: make(map[string]*scanspec.Partial),
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
	a.rows = a.layout(spec.Referenced())
	a.rowsTS = a.layout(append(spec.Referenced(), telco.AttrTS))
	return a, nil
}

// layout resolves the fold's positions inside the projection onto names.
func (a *aggAcc) layout(names []string) aggLayout {
	l := aggLayout{projection: newProjection(a.schema, names, false)}
	l.tsIdx = l.out.FieldIndex(telco.AttrTS)
	l.grpIdx = l.out.FieldIndex(a.spec.GroupBy)
	l.predIdx = make([]int, len(a.spec.Preds))
	for i, p := range a.spec.Preds {
		l.predIdx[i] = l.out.FieldIndex(p.Col)
	}
	l.aggIdx = make([]int, len(a.spec.Aggs))
	for i, g := range a.spec.Aggs {
		l.aggIdx[i] = l.out.FieldIndex(g.Col)
	}
	return l
}

// aggLeafTable folds one stored leaf table into the accumulator. v3
// chunks prune through window and per-column zone maps, answer from
// metadata when every row provably passes and the aggregates are
// zone-derivable, and otherwise decode only the needed column streams;
// v1/v2 and legacy blob leaves pick the same columns out of their text.
func (e *Engine) aggLeafTable(ref string, c compress.Codec, w telco.TimeRange, acc *aggAcc, prof *Profile) error {
	scanned, pruned := 0, 0
	defer func() {
		e.met.chunksScanned.Add(int64(scanned))
		e.met.chunksPruned.Add(int64(pruned))
		if prof != nil {
			prof.ChunksScanned += scanned
		}
	}()
	f, err := e.fs.Open(ref)
	if err != nil {
		return fmt.Errorf("core: open %s: %w", ref, err)
	}
	if !segment.IsSegment(f, f.Size()) {
		text, err := e.blobText(ref, c, prof)
		if err != nil {
			return err
		}
		rows, _, err := telco.DecodeRows(acc.schema, acc.rowsTS.cols, text)
		if err != nil {
			return fmt.Errorf("core: decode %s: %w", ref, err)
		}
		scanned = 1
		acc.fold(rows, &acc.rowsTS, true, w)
		return nil
	}
	r, err := segment.Open(f, f.Size(), c)
	if err != nil {
		return fmt.Errorf("core: open segment %s: %w", ref, err)
	}
	pr := leafPrune{window: &w}
	for i, ch := range r.Chunks() {
		if pr.skip(ch) != pruneNone || acc.exactWindowSkip(ch) {
			pruned++
			if prof != nil {
				prof.ChunksPrunedZone++
			}
			continue
		}
		lay, checkTS := &acc.rowsTS, true
		if r.Columnar() {
			if acc.zonePrune(ch) {
				pruned++
				if prof != nil {
					prof.ChunksPrunedPred++
				}
				continue
			}
			allIn := acc.chunkAllInWindow(ch, w)
			if allIn && acc.chunkAllMatch(ch) && acc.metaOK(ch) {
				acc.addMeta(ch)
				scanned++
				if prof != nil {
					prof.ChunksAggMeta++
					prof.ColumnsSkipped += len(ch.Cols)
				}
				continue
			}
			if allIn {
				lay, checkTS = &acc.rows, false
			}
		}
		rows, err := e.chunkRows(r, ref, i, &lay.projection, prof)
		if err != nil {
			return err
		}
		scanned++
		acc.fold(rows, lay, checkTS, w)
	}
	return nil
}

// exactWindowSkip reports whether the spec's exact row window (and its
// null-timestamp rule) proves no row of the chunk passes the row-level
// time filter.
func (a *aggAcc) exactWindowSkip(ch segment.Chunk) bool {
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
func (a *aggAcc) chunkAllInWindow(ch segment.Chunk, w telco.TimeRange) bool {
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
	if !w.Contains(time.Unix(0, ch.MinTS)) || !w.Contains(time.Unix(0, ch.MaxTS)) {
		return false
	}
	return a.spec.Window.ContainsRange(ch.MinTS, ch.MaxTS)
}

// zonePrune reports whether a per-column integer zone map proves one of
// the predicates unsatisfiable for every row of the chunk.
func (a *aggAcc) zonePrune(ch segment.Chunk) bool {
	if len(ch.Cols) == 0 {
		return false
	}
	for pi, p := range a.spec.Preds {
		ci := a.predCol[pi]
		if ci >= len(ch.Cols) || a.schema.Fields[ci].Kind != telco.KindInt {
			continue
		}
		if cm := ch.Cols[ci]; cm.HasZone && p.ZonePrune(cm.Min, cm.Max) {
			return true
		}
	}
	return false
}

// chunkAllMatch reports whether the zone maps prove every row satisfies
// every predicate (vacuously true without predicates).
func (a *aggAcc) chunkAllMatch(ch segment.Chunk) bool {
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
func (a *aggAcc) metaOK(ch segment.Chunk) bool {
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

// addMeta folds a whole chunk from its metadata.
func (a *aggAcc) addMeta(ch segment.Chunk) {
	n := len(a.spec.Aggs)
	mins, maxs := make([]int64, n), make([]int64, n)
	kinds := make([]telco.Kind, n)
	for i, ci := range a.aggCol {
		if ci < 0 {
			continue
		}
		mins[i], maxs[i] = ch.Cols[ci].Min, ch.Cols[ci].Max
		kinds[i] = a.schema.Fields[ci].Kind
	}
	a.spec.AddMeta(a.group(telco.Null), ch.Rows, mins, maxs, kinds)
}

// fold folds rows laid out as lay. checkTS applies the row-level time
// filter (skipped when chunkAllInWindow proved it for the whole chunk).
func (a *aggAcc) fold(rows []telco.Record, lay *aggLayout, checkTS bool, w telco.TimeRange) {
	for _, r := range rows {
		if checkTS {
			if lay.tsIdx >= 0 && !r[lay.tsIdx].IsNull() {
				t := r[lay.tsIdx].Time()
				if !w.Contains(t) || !a.spec.Window.Contains(t.UnixNano()) {
					continue
				}
			} else if a.spec.RequireTS {
				continue
			}
		}
		ok := true
		for pi, p := range a.spec.Preds {
			if !p.Eval(r[lay.predIdx[pi]]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		g := telco.Null
		if lay.grpIdx >= 0 {
			g = r[lay.grpIdx]
		}
		for i, ci := range lay.aggIdx {
			if ci < 0 {
				a.vals[i] = telco.Null
				continue
			}
			a.vals[i] = r[ci]
		}
		a.spec.AddRow(a.group(g), a.vals)
	}
}

// foldMem folds one full-width memtable table: narrowed to the fold's
// layout like every other source of rows, then folded with the row-level
// time filter.
func (a *aggAcc) foldMem(tab *telco.Table, w telco.TimeRange) {
	a.fold(a.rowsTS.narrow(tab).Rows, &a.rowsTS, true, w)
}

// group returns (creating on first use) the partial for one group value.
func (a *aggAcc) group(g telco.Value) *scanspec.Partial {
	key := g.Format()
	p := a.groups[key]
	if p == nil {
		p = a.spec.NewPartial(g)
		a.groups[key] = p
	}
	return p
}

// partials returns the accumulated groups sorted by group key.
func (a *aggAcc) partials() []scanspec.Partial {
	out := make([]scanspec.Partial, 0, len(a.groups))
	for _, p := range a.groups {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
