package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"spate/internal/cache"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/memtable"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/telco"
)

// Query is a data exploration request Q(a, b, w): attribute selection a,
// spatial bounding box b and temporal window w (paper §VI-A). A box can
// cover a few hundred square meters up to hundreds of square kilometers;
// a window spans hours to years.
type Query struct {
	// Attrs selects the attributes of interest. Empty selects every
	// summarized attribute.
	Attrs []highlights.AttrRef
	// Box is the spatial predicate. The zero box means "everywhere".
	Box geo.Rect
	// Window is the temporal predicate.
	Window telco.TimeRange
	// Tables restricts exact-row retrieval (default: all stored tables).
	Tables []string
	// ExactRows requests the raw records of non-decayed snapshots in the
	// window, in addition to aggregates.
	ExactRows bool
	// Fast serves the query entirely from the materialized summary of the
	// temporal node whose period completely covers the window — the
	// paper's literal §VI-A evaluation ("the index is accessed to find the
	// temporal node whose period completely covers w ... the highlights of
	// year-node 2016 are retrieved"). The answer may describe a larger
	// period than requested (see Result.ServedPeriod) but costs no
	// decompression at all; with no covering summary sealed yet, the query
	// falls back to the exact path.
	Fast bool
}

// everywhere reports whether the box is the zero value (no spatial filter).
func (q Query) everywhere() bool { return q.Box == (geo.Rect{}) }

// CellSeries is the per-cell aggregate view a heatmap renders. Attr is the
// cell's tracked attributes, ascending: a view into the answer's summary.
// All of an answer's series view that one summary, so they share its
// attribute dictionary (Attrs.Dict): a reader resolves an attribute to
// its position once per answer.
type CellSeries struct {
	CellID int64
	Loc    geo.Point
	Rows   int64
	Attr   highlights.Attrs
}

// Result is a data exploration answer.
type Result struct {
	// CoveringLevel is the resolution of the index node whose period
	// completely covered the window — the implicit-prefetch granularity.
	CoveringLevel index.Level
	// Summary aggregates the window restricted to the box's cells.
	Summary *highlights.Summary
	// Highlights are the interesting events extracted from the covering
	// node's resolution with its θ.
	Highlights []highlights.Highlight
	// Cells is the per-cell breakdown inside the box.
	Cells []CellSeries
	// Rows holds exact records per table when requested and available.
	Rows map[string]*telco.Table
	// DecayedLeaves counts window snapshots whose raw data has decayed;
	// those contribute aggregates only.
	DecayedLeaves int
	// ScannedLeaves counts snapshots decompressed for summaries or exact
	// rows.
	ScannedLeaves int
	// CacheHit marks answers served from the result cache (the UI-facing
	// behaviour for zoom-in queries with |w'| < |w|).
	CacheHit bool
	// ServedPeriod is the period the aggregates actually describe — equal
	// to the query window on the exact path, and the covering node's
	// (larger) period on the Fast path or under decay prefetch.
	ServedPeriod telco.TimeRange
	// Stages is the per-stage wall-time breakdown of the evaluation (plan,
	// collect, leaf_decode, merge, restrict, row_fetch). Cache hits carry
	// the breakdown of the evaluation that produced the cached answer.
	Stages []obs.Stage
	// Profile is the per-query cost breakdown of the evaluation (chunk
	// pruning split by reason, cache hits, inflated bytes, DFS reads).
	// Like Stages, a result-cache hit carries the profile of the
	// evaluation that produced the cached answer, with ResultCacheHit set.
	Profile Profile

	// leafDecode accrues the wall time summary collection spent decoding
	// leaves' kept summaries and rebuilding the rest from stored data (one
	// interval per fan-out), reported as the leaf_decode stage.
	leafDecode time.Duration

	// rendered memoizes a rendering of Cells for the hits a cached answer
	// serves (RenderedCells, MemoizeCells); nil until the result cache
	// takes an answer that has cells.
	rendered *cellsMemo
}

// Explore evaluates a data exploration query against the index: it finds
// the temporal node completely covering w, merges the summaries of the
// window's leaves (or coarser summaries where data has decayed), filters
// spatially through the cell inventory, and optionally decompresses the
// covered snapshots for exact rows.
func (e *Engine) Explore(q Query) (*Result, error) {
	return e.ExploreContext(context.Background(), q)
}

// ExploreContext is Explore with cancellation and span propagation: an
// expired or canceled ctx aborts the evaluation between leaf decodes (so
// abandoned HTTP requests stop burning CPU), and when ctx carries a live
// obs span the exploration span nests under it (e.g. under an HTTP
// request's span).
//
// Concurrent identical queries that miss the result cache dedupe through
// the result singleflight (cache.Flight): one caller (the leader)
// evaluates, the rest wait and share its answer as a cache hit. A leader
// that fails — most often its own context canceling — hands its failure to
// nobody, and each waiter retries (possibly leading itself), so one
// abandoned request never fails an unrelated identical one.
func (e *Engine) ExploreContext(ctx context.Context, q Query) (*Result, error) {
	key := q.CacheKey()
	if r, ok := e.cache.Get(key); ok {
		e.met.cacheHits.Inc()
		return sharedResult(ctx, r), nil
	}
	res, shared, err := e.resFlight.Do(ctx, key, func() (*Result, error) {
		return e.exploreUncached(ctx, q, key)
	})
	if err != nil {
		return nil, err
	}
	if shared {
		e.met.resShared.Inc()
		return sharedResult(ctx, res), nil
	}
	return res, nil
}

// sharedResult copies a cached (or singleflight-shared) result for one
// caller, marking it served without a scan.
func sharedResult(ctx context.Context, r *Result) *Result {
	out := *r
	out.CacheHit = true
	out.Profile.ResultCacheHit = true
	if p := ProfileFromContext(ctx); p != nil {
		p.ResultCacheHit = true
	}
	return &out
}

// exploreUncached is the result-cache miss path of ExploreContext: the
// full plan → collect → merge → restrict → rows evaluation, installing
// the answer under key on success.
func (e *Engine) exploreUncached(ctx context.Context, q Query, key string) (*Result, error) {
	e.met.cacheMisses.Inc()
	start := time.Now()
	sr := newStageRecorder()
	ctx, span := e.met.tracer.StartSpan(ctx, "explore")
	defer span.End()
	// finish flushes stage accounting into the registry, the span and the
	// result, then installs the answer in the cache.
	finish := func(res *Result) {
		if res.leafDecode > 0 {
			sr.add(StageLeafDecode, res.leafDecode.Nanoseconds())
		}
		res.Stages = sr.flush(e.met.exploreStage, span)
		res.ScannedLeaves = res.Profile.LeavesScanned
		res.DecayedLeaves = res.Profile.LeavesDecayed
		res.Profile.TraceID = span.TraceID()
		if p := ProfileFromContext(ctx); p != nil {
			p.Add(res.Profile)
		}
		span.End()
		e.met.exploreSec.Observe(time.Since(start).Seconds())
		e.met.scannedLeaves.Add(int64(res.ScannedLeaves))
		e.cache.Put(key, res)
	}

	// Planning happens entirely under the engine read lock — tree nodes are
	// mutated by Ingest/Decay under the write lock, so no node field may be
	// read once it is released. The plan carries everything the lock-free
	// phases need: materialized summaries (immutable once built) and
	// rebuild jobs for leaves whose day seal dropped theirs.
	tPlan := time.Now()
	res := &Result{ServedPeriod: q.Window}
	e.mu.RLock()
	covering := e.tree.FindCovering(q.Window)
	// The streaming memtable's contribution is captured under the same
	// lock acquisition as the plan and the LastEpoch watermark: a seal
	// that lands afterwards either already put its leaf in our plan (and
	// the watermark excludes the memtable copy) or hasn't (and the copy
	// serves) — fresh rows are visible exactly once either way.
	memt, memAfter := e.memAfterLocked()
	var memParts []*highlights.Summary
	if memt != nil {
		memParts = memt.Parts(q.Window, memAfter, e.opts.Highlights)
	}
	var rowSrc scanSources
	if q.ExactRows {
		rowSrc = e.captureLocked(q.Window, q.Tables)
	}
	if covering == nil && len(memParts) == 0 && len(rowSrc.memTabs) == 0 {
		e.mu.RUnlock()
		return nil, fmt.Errorf("core: no data ingested")
	}
	var coveringPeriod telco.TimeRange
	var coveringSummary *highlights.Summary
	level := index.LevelEpoch
	if covering != nil {
		level = covering.Level
		coveringPeriod = covering.Period
		coveringSummary = covering.Summary
	}
	res.CoveringLevel = level
	theta := e.opts.theta(level)
	// Unsealed rows in the window disable the Fast path — a covering
	// node's materialized summary cannot know about them.
	fast := q.Fast && coveringSummary != nil && !q.ExactRows && len(memParts) == 0
	var srcs []partSrc
	if !fast && covering != nil {
		srcs = e.planSummaries(e.tree.Root(), q.Window, nil, res)
	}
	e.mu.RUnlock()
	sr.add(StagePlan, time.Since(tPlan).Nanoseconds())

	// Fast path: answer from the covering node's materialized summary,
	// serving its whole (possibly larger) period.
	if fast {
		res.ServedPeriod = coveringPeriod
		t0 := time.Now()
		res.Summary, res.Cells = e.cells.Restrict(coveringSummary, q.Box, q.Attrs)
		sr.add(StageRestrict, time.Since(t0).Nanoseconds())
		res.Highlights = coveringSummary.Extract(theta)
		finish(res)
		return res, nil
	}

	// Collect summary parts top-down: sealed nodes fully inside the window
	// contribute their materialized summary in O(1); partially covered
	// periods descend to leaves, whose summaries are rebuilt from the
	// compressed snapshot data when the day-seal dropped them (the paper's
	// "highlight summaries or actual available data ... are then
	// retrieved"). This makes response time depend on the window's *edges*,
	// not its length.
	tCollect := time.Now()
	parts, err := e.buildParts(ctx, srcs, res, false)
	sr.add(StageCollect, (time.Since(tCollect) - res.leafDecode).Nanoseconds())
	if err != nil {
		return nil, err
	}
	// Unsealed epochs merge after the sealed parts — they are strictly
	// newer than every sealed leaf, so the flat sequence stays
	// chronological.
	parts = append(parts, memParts...)
	res.Profile.MemEpochs = len(memParts)
	tMerge := time.Now()
	merged := highlights.Merge(q.Window, parts...)
	sr.add(StageMerge, time.Since(tMerge).Nanoseconds())

	// Spatial restriction: keep only cells inside the box and rebuild the
	// window aggregates from the per-cell breakdown.
	tRestrict := time.Now()
	res.Summary, res.Cells = e.cells.Restrict(merged, q.Box, q.Attrs)
	sr.add(StageRestrict, time.Since(tRestrict).Nanoseconds())

	// Highlights come from the covering node's resolution — its θ — as in
	// the paper's drill-down description; fall back to the merged window.
	hsrc := coveringSummary
	if hsrc == nil {
		hsrc = merged
	}
	res.Highlights = hsrc.Extract(theta)

	if q.ExactRows {
		tRows := time.Now()
		planned := res.Profile.LeavesDecayed
		res.Rows = make(map[string]*telco.Table)
		err := e.scanRows(ctx, q, nil, rowSrc, &res.Profile, func(name string, tab *telco.Table) error {
			if dst := res.Rows[name]; dst != nil {
				dst.Rows = append(dst.Rows, tab.Rows...)
			} else {
				res.Rows[name] = tab
			}
			return nil
		})
		// The row scan met the decayed leaves the summary plan counted.
		res.Profile.LeavesDecayed = planned
		sr.add(StageRows, time.Since(tRows).Nanoseconds())
		if err != nil {
			return nil, err
		}
	}
	finish(res)
	return res, nil
}

// PartsDiag reports how a part collection was satisfied.
type PartsDiag struct {
	// ScannedLeaves counts snapshots decompressed to rebuild summaries.
	ScannedLeaves int
	// DecayedLeaves counts window snapshots whose raw data has decayed.
	DecayedLeaves int
}

// ExploreParts collects the summary parts answering window w in
// chronological order WITHOUT merging them. This is the unit a cluster
// coordinator transfers: gathering every shard's parts and folding them in
// one flat chronological Merge reproduces the exact association order a
// single engine uses, so scatter-gathered aggregates match the monolithic
// answer bit for bit.
//
// A sealed leaf's summary it has to decode from the leaf's kept encoding
// (Profile.LeavesDecoded) or rebuild from stored data (Profile.LeavesScanned)
// goes into the engine's result cache under the leaf's key (its sorted data
// refs) with the leaf's period as ServedPeriod, already encoded; the next
// exploration that needs the leaf takes it from there
// (Profile.LeavesCached). Concurrent decodes or rebuilds of one leaf run
// once. The entries live by the result cache's contract: its byte bound,
// Clear on Ingest and FinishIngest, and Invalidate of the decayed periods on
// decay. Explore does not cache leaves: it caches its whole answer.
func (e *Engine) ExploreParts(ctx context.Context, w telco.TimeRange) ([]*highlights.Summary, PartsDiag, error) {
	ctx, span := e.met.tracer.StartSpan(ctx, "explore_parts")
	defer span.End()
	res := &Result{}
	tPlan := time.Now()
	e.mu.RLock()
	memt, memAfter := e.memAfterLocked()
	var memParts []*highlights.Summary
	if memt != nil {
		memParts = memt.Parts(w, memAfter, e.opts.Highlights)
	}
	if e.tree.FindCovering(w) == nil && len(memParts) == 0 {
		e.mu.RUnlock()
		err := fmt.Errorf("core: no data ingested")
		span.SetError(err)
		return nil, PartsDiag{}, err
	}
	srcs := e.planSummaries(e.tree.Root(), w, nil, res)
	e.mu.RUnlock()
	tCollect := time.Now()
	parts, err := e.buildParts(ctx, srcs, res, true)
	if err != nil {
		span.SetError(err)
		return nil, PartsDiag{}, err
	}
	// Unsealed epochs follow the sealed parts; they are strictly newer,
	// and a coordinator's flat chronological merge slots them in with
	// every other shard's parts.
	parts = append(parts, memParts...)
	res.Profile.MemEpochs = len(memParts)
	if span != nil {
		span.AddStageAt(StagePlan, tPlan, tCollect.Sub(tPlan))
		span.AddStageAt(StageCollect, tCollect, time.Since(tCollect)-res.leafDecode)
		if res.leafDecode > 0 {
			span.AddStageAt(StageLeafDecode, tCollect, res.leafDecode)
		}
		span.SetAttr("leaves_cached", strconv.Itoa(res.Profile.LeavesCached))
		span.SetAttr("leaves_decoded", strconv.Itoa(res.Profile.LeavesDecoded))
	}
	if p := ProfileFromContext(ctx); p != nil {
		p.Add(res.Profile)
	}
	return parts, PartsDiag{ScannedLeaves: res.Profile.LeavesScanned, DecayedLeaves: res.Profile.LeavesDecayed}, nil
}

// queryEnv is the per-scan derived state every unit of an exact-data read
// shares: the table selection as a set, the box's cell membership map and
// the chunk-prune predicates.
// It is immutable after construction, so parallel scan workers read it
// without synchronization.
type queryEnv struct {
	tables map[string]struct{} // nil = every table
	inBox  map[int64]bool      // nil = no spatial filter
	pr     leafPrune
}

// newQueryEnv derives the environment for one query, whose chunks the
// window prunes.
func (e *Engine) newQueryEnv(win *scanspec.TimeWindow, tables []string, box geo.Rect) *queryEnv {
	env := &queryEnv{pr: leafPrune{window: win}}
	if len(tables) > 0 {
		env.tables = make(map[string]struct{}, len(tables))
		for _, t := range tables {
			env.tables[t] = struct{}{}
		}
	}
	var ids []int64
	if ids, env.inBox = e.cells.boxSet(box); env.inBox != nil && len(ids) <= maxPruneCells {
		env.pr.spatial, env.pr.cells = true, ids
	}
	return env
}

// wantTable reports whether the query's table selection includes name.
func (env *queryEnv) wantTable(name string) bool {
	if env.tables == nil {
		return true
	}
	_, ok := env.tables[name]
	return ok
}

// partSrc is one planned contribution to a window's answer: a summary
// already materialized in the tree, or — when sum is nil — a sealed leaf
// whose summary is decoded from its kept encoding or, without one, rebuilt
// from its compressed snapshot tables.
type partSrc struct {
	sum    *highlights.Summary
	kept   []byte            // the leaf's kept encoding; nil: rebuild
	period telco.TimeRange   // the leaf's period
	refs   map[string]string // table name -> DFS path
	// leaf is the rebuilt leaf, given the rebuild's encoding under the
	// engine write lock; it is not read without that lock.
	leaf *index.Node
}

// leafRef is the lock-free snapshot of the leaf fields the exact-row path
// reads. Tree nodes are mutated under the engine write lock, so node
// pointers must not be dereferenced after the read lock is released; the
// captured DataRefs map is safe to retain by reference — decay and
// compaction replace the refs map wholesale rather than mutating entries.
type leafRef struct {
	decayed bool
	refs    map[string]string
}

// rowLeaves snapshots the window's leaves for the exact-row path. The
// caller must hold the engine lock.
func (e *Engine) rowLeaves(w telco.TimeRange) []leafRef {
	nodes := e.tree.LeavesIn(w, nil)
	out := make([]leafRef, len(nodes))
	for i, n := range nodes {
		out[i] = leafRef{decayed: n.Decayed, refs: n.DataRefs}
	}
	return out
}

// scanSources is the lock-free capture an exact-data read of a window
// starts from: the window's leaves and the unsealed memtable's tables.
type scanSources struct {
	leaves  []leafRef
	memTabs []memTab
}

// captureLocked snapshots the sources of window w. Leaves and memtable
// watermark come from one acquisition of e.mu — the caller's — so a fresh
// row is visible exactly once whichever side of a concurrent seal it is on.
func (e *Engine) captureLocked(w telco.TimeRange, tables []string) scanSources {
	src := scanSources{leaves: e.rowLeaves(w)}
	if memt, memAfter := e.memAfterLocked(); memt != nil {
		src.memTabs = collectMemTabs(memt, w, tables, memAfter)
	}
	return src
}

// capture is captureLocked under the engine read lock.
func (e *Engine) capture(w telco.TimeRange, tables []string) scanSources {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.captureLocked(w, tables)
}

// unit is one (leaf, table) pair of a scan plan: the stored table a worker
// walks.
type unit struct {
	name, ref string
	schema    *telco.Schema
}

// scanPlan is the plan stage's output: the units to run, in emit order,
// and what became of the window's leaves.
type scanPlan struct {
	units            []unit
	scanned, decayed int // leaves
}

// planUnits is the plan stage of every exact-data read: captured leaves ×
// wanted tables become one ordered unit list — leaves in temporal order,
// table names sorted within a leaf — so results are emitted in the same
// order at every scan width. Decayed leaves are skipped (their raw data is
// gone); a leaf's chunks with no cell of the query box are skipped later,
// by their cell sketches, before they inflate.
func (e *Engine) planUnits(leaves []leafRef, env *queryEnv) (scanPlan, error) {
	var p scanPlan
	for _, l := range leaves {
		if l.decayed || l.refs == nil {
			if l.decayed {
				p.decayed++
			}
			continue
		}
		p.scanned++
		first := len(p.units)
		for name, ref := range l.refs {
			if !env.wantTable(name) {
				continue
			}
			schema := telco.SchemaByName(name)
			if schema == nil {
				return p, fmt.Errorf("core: decode %s: unknown schema %q", ref, name)
			}
			p.units = append(p.units, unit{name: name, ref: ref, schema: schema})
		}
		tail := p.units[first:]
		sort.Slice(tail, func(i, j int) bool { return tail[i].name < tail[j].name })
	}
	return p, nil
}

// planScan is the prologue every exact-data read shares: the query
// environment of the scan's window, box and the table selection, the unit
// plan of the captured leaves, and the plan's leaf counts booked to prof
// (when non-nil).
func (e *Engine) planScan(win *scanspec.TimeWindow, box geo.Rect, tables []string, src scanSources, prof *Profile) (*queryEnv, scanPlan, error) {
	env := e.newQueryEnv(win, tables, box)
	plan, err := e.planUnits(src.leaves, env)
	if err != nil {
		return nil, plan, err
	}
	if prof != nil {
		prof.LeavesScanned += plan.scanned
		prof.LeavesDecayed += plan.decayed
	}
	return env, plan, nil
}

// planSummaries selects the parts answering window w, preferring coarse
// materialized summaries and descending only at the window's edges. It
// runs under the engine read lock (held by the caller) and performs no
// I/O: leaves of a sealed day become jobs for buildParts to run after the
// lock is released — a decode of the leaf's kept encoding or, on a leaf
// that has none yet, a rebuild from its compressed data — so a long query
// never stalls ingest behind block decodes.
func (e *Engine) planSummaries(n *index.Node, w telco.TimeRange, srcs []partSrc, res *Result) []partSrc {
	if n.Level != index.LevelRoot && !n.Period.Overlaps(w) {
		return srcs
	}
	if n.IsLeaf() {
		if n.Decayed {
			res.Profile.LeavesDecayed++
			if n.Summary != nil {
				// Open-day decayed leaf: its in-memory summary is all that
				// remains and still answers aggregates.
				srcs = append(srcs, partSrc{sum: n.Summary})
			}
			return srcs
		}
		if n.Summary != nil {
			return append(srcs, partSrc{sum: n.Summary})
		}
		src := partSrc{kept: n.KeptSummary, period: n.Period, refs: n.DataRefs}
		if src.kept == nil {
			src.leaf = n
		}
		return append(srcs, src)
	}
	if n.Level != index.LevelRoot && n.Summary != nil {
		// Sealed internal node: use its materialized summary when the
		// window swallows it whole, or when its raw children are gone
		// (decay pruned the subtree) — the latter serves a larger period
		// than requested, the paper's implicit prefetch.
		if w.Covers(n.Period) || len(n.Children) == 0 {
			return append(srcs, partSrc{sum: n.Summary})
		}
	}
	before := len(srcs)
	for _, c := range n.Children {
		srcs = e.planSummaries(c, w, srcs, res)
	}
	// Prefetch fallback: when every overlapping descendant decayed without
	// leaving a summary (a sealed day whose raw data was evicted), serve
	// this node's materialized summary — a larger period than requested,
	// exactly the paper's implicit-prefetch behaviour.
	if len(srcs) == before && n.Summary != nil && n.Level != index.LevelRoot && n.Period.Overlaps(w) {
		srcs = append(srcs, partSrc{sum: n.Summary})
	}
	return srcs
}

// buildParts turns a query plan into summary parts in order, decoding or
// rebuilding the leaves the plan marked through the scan scheduler. A
// rebuild runs once however many explorations ask for the leaf at once
// (they share the result singleflight), and the leaf keeps the rebuilt
// summary's encoding, so later plans decode it. With cached set
// (ExploreParts), a leaf is taken from the result cache when it is there,
// and put there, encoded, when it is decoded or rebuilt. ctx is consulted
// before every job, so a canceled request abandons the collection
// promptly. Materialized summaries are slotted directly and every part
// keeps its chronological plan position, so the flat Merge downstream
// associates identically at every scan width.
func (e *Engine) buildParts(ctx context.Context, srcs []partSrc, res *Result, cached bool) ([]*highlights.Summary, error) {
	parts := make([]*highlights.Summary, len(srcs))
	var slots []int   // job index -> srcs index
	var keys []string // job index -> leaf key, when cached or rebuilt
	for i, src := range srcs {
		if src.sum != nil {
			parts[i] = src.sum
			continue
		}
		var key string
		if cached || src.kept == nil {
			key = leafKey(src.refs)
		}
		if cached {
			if r, ok := e.cache.Get(key); ok {
				parts[i] = r.Summary
				res.Profile.LeavesCached++
				continue
			}
		}
		slots = append(slots, i)
		keys = append(keys, key)
	}
	if len(slots) == 0 {
		return parts, nil
	}
	type leafPart struct {
		sum    *highlights.Summary
		shared bool // built by a concurrent exploration
	}
	// leaf_decode is a stage of this query's wall clock, so the jobs are
	// charged their elapsed time; what each worker of a fan-out spent inside
	// it stays in Profile.Workers.
	t0 := time.Now()
	err := e.runUnits(ctx, e.scanWorkers(), len(slots), &res.Profile, func(w *scanWorker, i int) (any, error) {
		src := srcs[slots[i]]
		if src.kept != nil && !cached {
			s, err := highlights.DecodeBinary(src.kept)
			return leafPart{sum: s}, err
		}
		r, shared, err := e.resFlight.Do(ctx, keys[i], func() (*Result, error) {
			s, err := e.leafSummary(src, w.prof)
			if err != nil {
				return nil, err
			}
			r := &Result{Summary: s, ServedPeriod: src.period}
			if cached {
				s.Encode() // what a shard ships; encoded first, its bytes count in the cache
				e.cache.Put(keys[i], r)
			}
			return r, nil
		})
		if err != nil {
			return nil, err
		}
		return leafPart{sum: r.Summary, shared: shared}, nil
	}, func(i int, v any) error {
		p := v.(leafPart)
		parts[slots[i]] = p.sum
		switch {
		case p.shared:
			res.Profile.LeavesCached++
		case srcs[slots[i]].kept != nil:
			res.Profile.LeavesDecoded++
		default:
			res.Profile.LeavesScanned++
		}
		return nil
	})
	res.leafDecode += time.Since(t0)
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// leafSummary is a planned leaf's summary: its kept encoding decoded, or
// one rebuilt from its data, whose encoding the leaf then keeps. The bytes
// are stored under the engine write lock, and not on a leaf that decayed
// (or gained an encoding) since the plan, so each leaf is rebuilt at most
// once per process.
func (e *Engine) leafSummary(src partSrc, prof *Profile) (*highlights.Summary, error) {
	if src.kept != nil {
		return highlights.DecodeBinary(src.kept)
	}
	s, err := e.buildLeafSummary(src.period, src.refs, prof)
	if err != nil {
		return nil, err
	}
	enc, _ := s.Encode()
	e.mu.Lock()
	if l := src.leaf; !l.Decayed && l.Summary == nil && l.KeptSummary == nil {
		l.KeptSummary = enc
	}
	e.mu.Unlock()
	return s, nil
}

// buildLeafSummary reconstructs an epoch summary by decoding the
// snapshot's stored tables — the exact-data path for recent windows whose
// day has sealed (and dropped its ephemeral leaf summaries). Only the
// columns the highlights fold reads are materialized: the timestamp, the
// cell id and the table's configured highlight attributes. Every chunk
// contributes (summaries aggregate the whole leaf), so the scan prunes
// nothing; highlight accumulation is row-additive, so folding chunk by
// chunk reproduces the whole-table fold exactly.
func (e *Engine) buildLeafSummary(period telco.TimeRange, refs map[string]string, prof *Profile) (*highlights.Summary, error) {
	s := highlights.NewSummary(period)
	fold, _ := e.folders.Get().(*highlights.Folder)
	if fold == nil {
		fold = new(highlights.Folder)
	}
	defer e.folders.Put(fold)
	for name, ref := range refs {
		schema := telco.SchemaByName(name)
		if schema == nil {
			return nil, fmt.Errorf("core: decode %s: unknown schema %q", ref, name)
		}
		attrs := append(e.opts.Highlights.Attrs(name), telco.AttrTS, telco.AttrCellID)
		sink := foldSink{proj: newProjection(schema, attrs, false), fold: fold}
		fold.Reset(s, e.opts.Highlights, sink.proj.out)
		if err := e.walkLeaf(ref, leafPrune{}, sink, prof); err != nil {
			return nil, err
		}
		fold.Flush()
	}
	return s, nil
}

// memTab is one unsealed (epoch, table) contribution captured from the
// streaming memtable: a window-filtered, timestamp-ordered copy of its
// rows, safe to use after the engine lock is released.
type memTab struct {
	name string
	tab  *telco.Table
}

// collectMemTabs copies the memtable's window contribution out in epoch
// then table-name order. Caller holds e.mu (the watermark and the plan
// must come from one lock acquisition).
func collectMemTabs(memt *memtable.Memtable, w telco.TimeRange, tables []string, after telco.Epoch) []memTab {
	var out []memTab
	_ = memt.Scan(w, tables, after, func(name string, tab *telco.Table) error {
		out = append(out, memTab{name: name, tab: tab})
		return nil
	})
	return out
}

// ScanTablesContext streams the window's stored records table by table:
// snapshots are pruned through the temporal index, decompressed, parsed
// and filtered to the window, and a canceled ctx stops the scan between
// snapshot decompressions, so an abandoned SQL request does not keep
// reading and inflating blocks. Decayed snapshots are skipped (their raw
// data is gone). This is the access path SPATE-SQL executes declarative
// queries over.
func (e *Engine) ScanTablesContext(ctx context.Context, w telco.TimeRange, tables []string, fn func(string, *telco.Table) error) error {
	return e.ScanTablesSpec(ctx, w, geo.Rect{}, tables, nil, fn)
}

// ScanTablesSpec is ScanTablesContext inside a box and with a pushdown
// spec. The zero box means everywhere; any other keeps the rows of the
// cells inside it (rows of a table without a cell id always pass). The spec
// is a prefilter — callers re-evaluate their own predicates — so it only
// makes the scan cheaper: the tables fn receives are narrow, their Schema
// the projection (telco.Schema.Project) of the stored table onto the spec's
// referenced columns plus the timestamp (and, inside a box, the cell id),
// in schema order, and only those column streams of a v3 leaf decode;
// per-column zone maps prune chunks, and rows failing the spec's
// predicates, exact time window or null-timestamp rule are dropped before
// fn sees them. Every source of rows — any leaf format, the unsealed
// memtable — comes out in that one layout. A nil spec (or one with nil
// Columns) scans every column and fn sees the stored table's own schema.
func (e *Engine) ScanTablesSpec(ctx context.Context, w telco.TimeRange, box geo.Rect, tables []string, spec *ScanSpec, fn func(string, *telco.Table) error) error {
	return e.scanRows(ctx, Query{Window: w, Box: box, Tables: tables}, spec, e.capture(w, tables), ProfileFromContext(ctx), fn)
}

// scanRows is the one exact-row loop, under one row_fetch span: Explore's
// rows, the SQL scans and a shard's row answers all run it. It reads the
// sources src captured for q's window and table selection, and hands fn
// one table per (leaf, table) unit, in leaf order with table names sorted
// within a leaf, then one per unsealed (epoch, table) — strictly newer than
// every sealed leaf — so every table's row sequence is the same at every
// scan width. A table comes out even when none of its rows passed. Segment
// leaves prune chunks through their zone maps (window bounds, cell sketch,
// the spec's integer predicates) before decompressing; the row sink's
// filters — q's window and box, the spec — stay authoritative, and the
// memtable's rows go through the same sink. The leaf counts and the scan's
// costs accrue to prof (nil: unprofiled).
func (e *Engine) scanRows(ctx context.Context, q Query, spec *ScanSpec, src scanSources, prof *Profile, fn func(string, *telco.Table) error) (err error) {
	ctx, span := e.met.tracer.StartSpan(ctx, StageRows)
	defer span.End()
	if span != nil {
		if prof == nil {
			prof = new(Profile) // the span's I/O stages are read off a profile
		}
		before, t0 := *prof, time.Now()
		defer func() {
			span.SetError(err)
			// The I/O phases accrue across chunks; anchor them at the
			// scan's start so the waterfall keeps execution order.
			for _, st := range []struct {
				name string
				ns   int64
			}{{StageCacheLookup, prof.LookupNS - before.LookupNS}, {StageDFSRead, prof.ReadNS - before.ReadNS}, {StageDecode, prof.DecodeNS - before.DecodeNS}} {
				if st.ns > 0 {
					span.AddStageAt(st.name, t0, time.Duration(st.ns))
				}
			}
		}()
	}

	if q.Box != (geo.Rect{}) && spec != nil && spec.Columns != nil {
		// The box filters on the cell id, so a narrow scan reads it too.
		narrow := *spec
		narrow.Columns = append(slices.Clip(spec.Columns), telco.AttrCellID)
		spec = &narrow
	}
	tf := newTimeFilter(q.Window, spec)
	env, plan, err := e.planScan(tf.win, q.Box, q.Tables, src, prof)
	if err != nil {
		return err
	}
	// One resolved scan per table, so every table of a name shares one
	// projected schema. Resolved here, serially; the units only read them.
	scans := make(map[string]*specScan)
	scanFor := func(name string, schema *telco.Schema) *specScan {
		ss := scans[name]
		if ss == nil {
			ss = newSpecScan(spec, schema)
			scans[name] = ss
		}
		return ss
	}
	for _, u := range plan.units {
		scanFor(u.name, u.schema)
	}
	err = e.runUnits(ctx, e.scanWorkers(), len(plan.units), prof, func(sw *scanWorker, i int) (any, error) {
		u := plan.units[i]
		ss := scans[u.name]
		tab := ss.table(nil)
		return tab, e.walkLeaf(u.ref, env.pr, newRowSink(ss, tf, env.inBox, tab), sw.prof)
	}, func(i int, v any) error {
		return fn(plan.units[i].name, v.(*telco.Table))
	})
	if err != nil {
		return err
	}
	// Unsealed rows come last, strictly newer than every sealed leaf. They
	// load into a batch of the scan's layout and pass the same sink, so no
	// fresh row leaks around the box or a pushdown.
	b := e.getBatch()
	defer e.putBatch(b)
	for _, mt := range src.memTabs {
		if err := ctx.Err(); err != nil {
			return err
		}
		schema := telco.SchemaByName(mt.name)
		if schema == nil {
			return fmt.Errorf("core: decode memtable: unknown schema %q", mt.name)
		}
		ss := scanFor(mt.name, schema)
		tab := ss.table(nil)
		b.SetRows(ss.full, ss.cols, mt.tab.Rows, true)
		if err := newRowSink(ss, tf, env.inBox, tab).rows(&ss.projection, b); err != nil {
			return err
		}
		if prof != nil {
			prof.MemRows += tab.Len()
		}
		if err := fn(mt.name, tab); err != nil {
			return err
		}
	}
	return nil
}

// CacheKey renders a deterministic key for a result cache that tells
// every two queries apart: names are quoted, the box's corners are their
// float bits and the window's bounds their seconds and nanoseconds, none of
// them rounded as printing would. It starts with "q", which no leaf key
// does. A cluster coordinator keys its finished answers by it too.
func (q Query) CacheKey() string {
	b := make([]byte, 0, 160)
	b = append(b, 'q')
	for _, a := range q.Attrs {
		b = strconv.AppendQuote(strconv.AppendQuote(b, a.Table), a.Attr)
	}
	b = append(b, '|')
	for _, v := range [4]float64{q.Box.MinX, q.Box.MinY, q.Box.MaxX, q.Box.MaxY} {
		b = strconv.AppendUint(append(b, ','), math.Float64bits(v), 16)
	}
	b = append(b, '|')
	for _, t := range [2]time.Time{q.Window.From, q.Window.To} {
		b = strconv.AppendInt(append(b, ','), t.Unix(), 10)
		b = strconv.AppendInt(append(b, '.'), int64(t.Nanosecond()), 10)
	}
	b = append(b, '|')
	for _, t := range q.Tables {
		b = strconv.AppendQuote(b, t)
	}
	b = append(b, '|')
	b = strconv.AppendBool(b, q.ExactRows)
	b = strconv.AppendBool(append(b, ','), q.Fast)
	return string(b)
}

// leafKeyPrefix starts the result-cache key of a leaf summary. A query key
// starts with "q", so none starts with this.
const leafKeyPrefix = "|leaf|"

// leafKey renders the result-cache key of a leaf's summary: its data refs
// in sorted order. A leaf's stored data never changes under a ref, so
// neither does the summary rebuilt from it.
func leafKey(refs map[string]string) string {
	paths := make([]string, 0, len(refs))
	for _, ref := range refs {
		paths = append(paths, ref)
	}
	sort.Strings(paths)
	return leafKeyPrefix + strings.Join(paths, "|")
}

// ResultCache is the engine's pluggable result-cache contract — the
// mechanism behind the paper's zoom-in behaviour, where a narrowed window
// |w'| < |w| "can be served directly from the cache". The engine calls
// Put on every uncached evaluation and for every leaf summary ExploreParts
// rebuilt (under a key no query has), Get before evaluating, Invalidate
// when decay or fresh streamed rows change what a period's answer would
// be, and Clear on ingest. Implementations must be safe for concurrent
// use and must honor the invalidation contract: every entry whose
// ServedPeriod overlaps a given (half-open) range is dropped.
//
// An engine's default is a 64 MiB result LRU of its own; the serving tier
// (internal/serving) plugs one namespace of a process-wide LRU in through
// Options.ResultCache so every engine in a process draws on one budget.
type ResultCache interface {
	Get(key string) (*Result, bool)
	Put(key string, r *Result)
	Invalidate(ranges []telco.TimeRange)
	Clear()
}

// defaultResultCacheBytes is an engine's own result budget, the same as
// its chunk cache's default.
const defaultResultCacheBytes = 64 << 20

// NewResultLRU returns a result cache bounded at maxBytes of
// Result.SizeBytes, reporting as spate_result_cache_* on reg.
func NewResultLRU(maxBytes int64, reg *obs.Registry) *cache.LRU[*Result] {
	return cache.New("spate_result_cache", "Exploration results", maxBytes, (*Result).SizeBytes, reg)
}

// ResultsUnder binds the keys under prefix of a result LRU to the
// ResultCache contract; Invalidate and Clear drop only that prefix's
// entries. An engine's default cache is the whole of its own LRU (prefix
// ""), a serving namespace one prefix of a shared one.
func ResultsUnder(lru *cache.LRU[*Result], prefix string) ResultCache {
	return resultsUnder{lru: lru, prefix: prefix}
}

type resultsUnder struct {
	lru    *cache.LRU[*Result]
	prefix string
}

func (c resultsUnder) Get(key string) (*Result, bool) { return c.lru.Get(c.prefix + key) }
func (c resultsUnder) Clear()                         { c.dropIf(func(*Result) bool { return true }) }

// Put caches r. An answer with cells gets the memo its hits keep a
// rendering in, charged by SizeBytes from here on; r is not shared yet
// (the engine puts an answer before it returns it to anyone).
func (c resultsUnder) Put(key string, r *Result) {
	r.ReserveCellsMemo()
	c.lru.Put(c.prefix+key, r)
}

// Invalidate drops every cached result whose served period intersects any
// of the given ranges. ServedPeriod always covers the data a result was
// computed from (it equals the query window on the exact path and the
// covering node's larger period under Fast/prefetch), so a disjoint entry
// provably cannot observe the evicted data and survives. Ranges are
// half-open like telco.TimeRange: an entry exactly adjacent to a range
// does not overlap it and stays.
func (c resultsUnder) Invalidate(ranges []telco.TimeRange) {
	if len(ranges) == 0 {
		return
	}
	c.dropIf(func(r *Result) bool {
		for _, tr := range ranges {
			if r.ServedPeriod.Overlaps(tr) {
				return true
			}
		}
		return false
	})
}

func (c resultsUnder) dropIf(stale func(*Result) bool) {
	c.lru.DropIf(func(key string, r *Result) bool { return strings.HasPrefix(key, c.prefix) && stale(r) })
}

// SizeBytes estimates the retained heap footprint of a result — the unit
// result caches budget by: its summary exactly, the rest at shallow
// per-element sizes, and its memo of rendered cells at the whole reserve
// the memo may fill. It is deterministic, and cheap enough to run once per
// cache Put.
func (r *Result) SizeBytes() int64 {
	size := int64(512) // struct shell: periods, counters, profile
	if r.Summary != nil {
		size += r.Summary.SizeHint() // its memoized encoding included
	}
	if r.rendered != nil {
		size += cellsMemoReserve(len(r.Cells))
	}
	size += int64(cap(r.Cells)) * int64(unsafe.Sizeof(CellSeries{}))
	for _, cs := range r.Cells {
		size += int64(cs.Attr.Len()) * 64 // a selection's copy, or a view counted twice
	}
	for _, h := range r.Highlights {
		size += int64(len(h.Attr.Table)+len(h.Attr.Attr)+len(h.Value)) + 64
	}
	for name, t := range r.Rows {
		size += int64(len(name)) + 96
		for _, rec := range t.Rows {
			size += memtable.Size(rec)
		}
	}
	size += int64(len(r.Stages)) * 48
	return size
}
