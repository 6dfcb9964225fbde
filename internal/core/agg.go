package core

import (
	"context"
	"fmt"
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
	tables := []string{table}
	env := e.newQueryEnv(&w, tables, geo.Rect{})
	src := e.capture(w, tables)
	plan, err := e.planUnits(src.leaves, env)
	if err != nil {
		return nil, err
	}
	prof := ProfileFromContext(ctx)
	if prof != nil {
		prof.LeavesScanned += plan.scanned
		prof.LeavesDecayed += plan.decayed
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
		_, _, err := e.walkLeaf(plan.units[i].ref, c, env.pr, accs[sw.id], sw.prof)
		return nil, err
	}, func(int, any) error { return nil })
	if err != nil {
		return nil, err
	}
	for _, mt := range src.memTabs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if prof != nil {
			prof.MemRows += mt.tab.Len()
		}
		accs[0].foldMem(mt.tab)
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

// aggLayout is one projection a per-row fold reads rows in, with the
// positions of everything the fold touches inside it.
type aggLayout struct {
	projection
	checkTS bool  // rows still need the row-level time filter
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
// far. It is the leaf walk's aggregating sink.
type aggAcc struct {
	spec   *ScanSpec
	schema *telco.Schema
	w      telco.TimeRange // the scan window

	predCol []int // stored position per predicate
	aggCol  []int // stored position per aggregate argument, -1 for COUNT(*)

	lay   aggLayout // without the timestamp, unless the spec reads it
	layTS aggLayout // with the timestamp for window filtering

	vals   []telco.Value // per-row aggregate arguments, reused
	groups map[string]*scanspec.Partial
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
	a.lay = a.resolve(spec.Referenced(), false)
	a.layTS = a.resolve(append(spec.Referenced(), telco.AttrTS), true)
	return a, nil
}

// resolve builds the fold's positions inside the projection onto names.
func (a *aggAcc) resolve(names []string, checkTS bool) aggLayout {
	l := aggLayout{projection: newProjection(a.schema, names, false), checkTS: checkTS}
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
func (a *aggAcc) rows(p *projection, rows []telco.Record) error {
	lay := &a.layTS
	if p == &a.lay.projection {
		lay = &a.lay
	}
	a.fold(rows, lay)
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

// addMeta folds a whole chunk from its metadata.
func (a *aggAcc) addMeta(ch *segment.Chunk) {
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

// fold folds rows laid out as lay, applying the row-level time filter
// unless chunkAllInWindow proved it for the whole chunk.
func (a *aggAcc) fold(rows []telco.Record, lay *aggLayout) {
	for _, r := range rows {
		if lay.checkTS {
			if lay.tsIdx >= 0 && !r[lay.tsIdx].IsNull() {
				t := r[lay.tsIdx].Time()
				if !a.w.Contains(t) || !a.spec.Window.Contains(t.UnixNano()) {
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
func (a *aggAcc) foldMem(tab *telco.Table) {
	a.fold(a.layTS.narrow(tab).Rows, &a.layTS)
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
