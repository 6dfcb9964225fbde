package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"spate/internal/core"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/scanspec"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// Coordinator is the thin distribution layer in front of the shard nodes:
// it routes ingests to the replica group owning each epoch (write-all) and
// scatters explorations to the slots a query's window and box touch,
// gathering their summary parts into one flat chronological merge
// (read-any, hedged across replicas).
type Coordinator struct {
	cfg   Config
	smap  *ShardMap
	nodes [][]string // slot-major: nodes[slot][replica] base URLs
	cl    *client
	cells *core.CellInventory
	met   *clusterMetrics
}

// Result is a scatter-gathered exploration answer: a core.Result — Summary
// restricted to the box's cells, their per-cell Cells, Highlights extracted
// from the merged window summary with the coordinator's θ, exact Rows when
// requested, Scanned/DecayedLeaves summed over the shards, and a Profile
// totalling the surviving shards' scan cost with the per-shard split in
// Profile.Shards (failed slots appear with Missing/Error set and a zero
// profile) — plus the degradation contract: a Result with Partial set is a
// correct answer for the window minus the Missing ranges. What only one
// engine knows about its own evaluation (covering level, cache hit, stages,
// pruning counts) stays zero.
type Result struct {
	core.Result

	// Partial marks a degraded answer: at least one shard failed all its
	// retries and its data is absent from the aggregates.
	Partial bool
	// Missing enumerates the window time-ranges owned by failed shards, in
	// chronological order per shard.
	Missing []telco.TimeRange

	// ShardsQueried and ShardsFailed count time shards touched by the
	// window and those that failed after retries.
	ShardsQueried int
	ShardsFailed  int
	// HedgeWins counts slot reads won by a hedged replica request; Retries
	// counts extra attempts spent.
	HedgeWins int
	Retries   int

	// TraceID identifies the distributed trace of this exploration ("" when
	// tracing is disabled); /api/trace?id= returns the merged tree.
	TraceID string
}

// NewCoordinator wires a coordinator for the given topology. nodes is
// slot-major — nodes[slot] lists the replica base URLs (http://host:port)
// serving that slot, slot = timeShard*bands + band. cellTable is the same
// cell inventory the shard engines were opened with; the coordinator
// restricts merged summaries spatially through it, exactly like a single
// engine.
func NewCoordinator(cfg Config, m *ShardMap, nodes [][]string, cellTable *telco.Table) (*Coordinator, error) {
	cells, err := core.NewCellInventory(cellTable)
	if err != nil {
		return nil, err
	}
	return newCoordinator(cfg, m, nodes, cells)
}

func newCoordinator(cfg Config, m *ShardMap, nodes [][]string, cells *core.CellInventory) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if err := m.validate(); err != nil {
		return nil, err
	}
	if len(nodes) != m.NumSlots() {
		return nil, fmt.Errorf("cluster: topology has %d replica groups, shard map needs %d", len(nodes), m.NumSlots())
	}
	for slot, urls := range nodes {
		if len(urls) == 0 {
			return nil, fmt.Errorf("cluster: slot %d has no replicas", slot)
		}
	}
	return &Coordinator{
		cfg:   cfg,
		smap:  m,
		nodes: nodes,
		cl:    newClient(),
		cells: cells,
		met:   newClusterMetrics(cfg.Obs, m.Shards),
	}, nil
}

// Map exposes the coordinator's shard map.
func (c *Coordinator) Map() *ShardMap { return c.smap }

// fanOut runs f(0) … f(n-1) concurrently and returns their errors by index.
func fanOut(n int, f func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// allNodes lists every node's base URL once, sorted.
func (c *Coordinator) allNodes() []string {
	var urls []string
	seen := make(map[string]bool)
	for _, group := range c.nodes {
		for _, u := range group {
			if !seen[u] {
				seen[u] = true
				urls = append(urls, u)
			}
		}
	}
	sort.Strings(urls)
	return urls
}

// retry runs try until it succeeds, reports an error retrying cannot cure,
// or has spent the configured retries, backing off exponentially between
// attempts; it returns the number of retries spent.
func (c *Coordinator) retry(ctx context.Context, op string, try func(attempt int) (final bool, err error)) (int, error) {
	backoff := c.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		final, err := try(attempt)
		if err == nil || final || attempt >= c.cfg.Retries || ctx.Err() != nil {
			return attempt, err
		}
		c.met.retries[op].Inc()
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return attempt + 1, ctx.Err()
		}
		backoff *= 2
	}
}

// Ingest routes one snapshot to the replica group(s) owning its epoch:
// the time shard is the epoch's block owner, and under a spatial split
// each band slot receives only the rows of cells inside its band. Every
// replica of a touched slot is written (write-all) with bounded retries;
// any replica failing all attempts fails the ingest.
func (c *Coordinator) Ingest(ctx context.Context, snap *snapshot.Snapshot) error {
	shard := c.smap.TimeShardOf(snap.Epoch)
	start := time.Now()
	reqs, err := c.splitSnapshot(snap, shard)
	if err != nil {
		return err
	}
	err = c.writeAll(ctx, "ingest", reqs)
	c.met.ingests.Inc()
	c.met.ingestSec[shard].Observe(time.Since(start).Seconds())
	return err
}

// splitSnapshot renders one snapshot's ingest requests by slot — a single
// request holding every table when there is no spatial split.
func (c *Coordinator) splitSnapshot(snap *snapshot.Snapshot, shard int) (map[int]any, error) {
	bands := []*snapshot.Snapshot{snap}
	if c.smap.NumBands() > 1 {
		// Spatial split: route each row to the band of its cell. Rows of
		// unknown cells land in band 0 so nothing is dropped.
		bands = make([]*snapshot.Snapshot, c.smap.NumBands())
		for i := range bands {
			bands[i] = snapshot.New(snap.Epoch)
		}
		for _, name := range snap.TableNames() {
			src := snap.Table(name)
			cellIdx := src.Schema.FieldIndex(telco.AttrCellID)
			parts := make([]*telco.Table, len(bands))
			for i := range parts {
				parts[i] = telco.NewTable(src.Schema)
			}
			for _, row := range src.Rows {
				band := 0
				if cellIdx >= 0 {
					if pt, ok := c.cells.Location(row[cellIdx].Int64()); ok {
						band = c.smap.BandOf(pt)
					}
				}
				parts[band].Append(row)
			}
			for band, t := range parts {
				bands[band].Add(t)
			}
		}
	}
	reqs := make(map[int]any, len(bands))
	for band, s := range bands {
		names := s.TableNames()
		req := &ingestRequest{Epoch: int64(snap.Epoch), Tables: make(map[string][]byte, len(names))}
		for _, name := range names {
			data, err := s.EncodeTable(name)
			if err != nil {
				return nil, err
			}
			req.Tables[name] = data
		}
		reqs[c.smap.Slot(shard, band)] = req
	}
	return reqs, nil
}

// writeAll posts each touched slot's request (op "ingest" or "append") to
// every replica of that slot; any replica failing all its attempts fails
// the write.
func (c *Coordinator) writeAll(ctx context.Context, op string, reqs map[int]any) error {
	type write struct {
		slot int
		url  string
	}
	var ws []write
	for slot := range reqs {
		for _, url := range c.nodes[slot] {
			ws = append(ws, write{slot, url})
		}
	}
	for _, err := range fanOut(len(ws), func(i int) error {
		return c.writeReplica(ctx, op, ws[i].slot, ws[i].url, reqs[ws[i].slot])
	}) {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeReplica posts one slot's write to one replica with bounded retries,
// translating the peer's typed refusals of an append (429 backpressure, 409
// stale/finalized) back into their sentinel errors.
func (c *Coordinator) writeReplica(ctx context.Context, op string, slot int, url string, req any) error {
	shard := c.smap.SlotShard(slot)
	_, err := c.retry(ctx, op, func(int) (bool, error) {
		actx, cancel := context.WithTimeout(ctx, c.cfg.IngestTimeout)
		defer cancel()
		err := c.cl.post(actx, url, "/rpc/"+op, req, nil)
		if err != nil {
			c.met.shardErrors[shard].Inc()
		}
		// A stale epoch or a finalized store: retrying cannot help.
		return httpStatus(err) == http.StatusConflict, err
	})
	switch httpStatus(err) {
	case http.StatusTooManyRequests:
		// Re-type the shard's refusal so errors.Is(err, ErrBackpressure)
		// still matches and the shard's Retry-After hint survives the hop
		// (the HTTP layer surfaces it to the originating client).
		return fmt.Errorf("%w: %v", &core.BackpressureError{RetryAfter: retryAfterOf(err)}, err)
	case http.StatusConflict:
		return fmt.Errorf("%w: %v", core.ErrStaleEpoch, err)
	}
	return err
}

// Append routes streaming rows to the slots owning them — the time shard
// is each row's epoch block owner, the band its cell's under a spatial
// split — and writes every replica of a touched slot (write-all, bounded
// retries), like Ingest, so streamed and batch-loaded data land on the same
// nodes. Rows travel as wire-text lines and apply through each node's WAL +
// memtable, so they are explorable when Append returns. A replica refusing
// for backpressure surfaces as core.ErrBackpressure, rows of already-sealed
// epochs as core.ErrStaleEpoch.
func (c *Coordinator) Append(ctx context.Context, table string, recs []telco.Record) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	schema := telco.SchemaByName(table)
	if schema == nil {
		return 0, fmt.Errorf("cluster: unknown table %q", table)
	}
	tsIdx := schema.FieldIndex(telco.AttrTS)
	if tsIdx < 0 {
		return 0, fmt.Errorf("cluster: table %q has no timestamp attribute", table)
	}
	cellIdx := schema.FieldIndex(telco.AttrCellID)
	bySlot := make(map[int][]string)
	for _, rec := range recs {
		if len(rec) != len(schema.Fields) {
			return 0, fmt.Errorf("cluster: %s row has %d fields, want %d", table, len(rec), len(schema.Fields))
		}
		if rec[tsIdx].IsNull() {
			return 0, fmt.Errorf("cluster: %s row lacks a timestamp", table)
		}
		shard := c.smap.TimeShardOf(telco.EpochOf(rec[tsIdx].Time()))
		band := 0
		if c.smap.NumBands() > 1 && cellIdx >= 0 {
			// Unknown cells land in band 0, like splitSnapshot.
			if pt, ok := c.cells.Location(rec[cellIdx].Int64()); ok {
				band = c.smap.BandOf(pt)
			}
		}
		slot := c.smap.Slot(shard, band)
		bySlot[slot] = append(bySlot[slot], rec.Line())
	}
	reqs := make(map[int]any, len(bySlot))
	for slot, lines := range bySlot {
		reqs[slot] = &appendRequest{Table: table, Rows: lines}
	}
	err := c.writeAll(ctx, "append", reqs)
	c.met.appends.Inc()
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}

// broadcast posts req to path on every node and returns the first failure.
func (c *Coordinator) broadcast(ctx context.Context, path string, req any, tolerate int) error {
	urls := c.allNodes()
	for _, err := range fanOut(len(urls), func(i int) error {
		return c.cl.post(ctx, urls[i], path, req, nil)
	}) {
		if err != nil && httpStatus(err) != tolerate {
			return err
		}
	}
	return nil
}

// FlushStreams broadcasts a seal-all to every node's streamer: each
// drains its pending appends and seals every buffered epoch into leaves.
// Nodes without a streamer refuse with 503, which is tolerated — a mixed
// batch/stream topology flushes the streaming nodes and skips the rest.
func (c *Coordinator) FlushStreams(ctx context.Context) error {
	return c.broadcast(ctx, "/rpc/append", &appendRequest{Seal: true}, http.StatusServiceUnavailable)
}

// FinishIngest broadcasts the ingest-finished seal to every node so open
// day/month/year nodes materialize their summaries.
func (c *Coordinator) FinishIngest(ctx context.Context) error {
	return c.broadcast(ctx, "/rpc/finish", struct{}{}, 0)
}

// ErrDegraded marks a scatter that lost a shard after every retry where
// the caller needed all of them: SQL answers must be complete or absent,
// so the strict paths fail with it instead of answering from a subset.
var ErrDegraded = errors.New("cluster: scatter degraded")

// slotOutcome is what one slot of a scatter came back with: the shard's
// response or the error that outlasted the retries, and the slot's entry
// for Profile.Shards either way.
type slotOutcome struct {
	resp *exploreResponse
	err  error
	sp   core.ShardProfile
}

// scatter is the coordinator's one fan-out: req goes to every slot of
// shards × bands at once, each read from any replica (hedged, bounded
// retries), and the outcomes come back in slot order with retries, hedge
// wins and latency booked. Each slot runs under its own child span, whose
// identity rides out in the RPC header so the shard's recorded subtree
// grafts back under it; a failed slot keeps its span — annotated, not
// dropped — so a partial answer's trace shows the hole. What a failed slot
// means is the caller's decision: Explore degrades around it, the SQL
// paths refuse (scatterStrict).
func (c *Coordinator) scatter(ctx context.Context, shards, bands []int, req exploreRequest) []slotOutcome {
	outs := make([]slotOutcome, len(shards)*len(bands))
	var wg sync.WaitGroup
	for si, shard := range shards {
		for bi, band := range bands {
			wg.Add(1)
			go func(o *slotOutcome, shard, band int) {
				defer wg.Done()
				sctx, sspan := c.cfg.Tracer.StartSpan(ctx, "slot_explore")
				defer sspan.End()
				sspan.SetAttr("shard", strconv.Itoa(shard))
				sspan.SetAttr("band", strconv.Itoa(band))
				t0 := time.Now()
				resp, retries, hedgeWin, err := c.exploreSlot(sctx, c.smap.Slot(shard, band), req)
				o.resp, o.err = resp, err
				o.sp = core.ShardProfile{
					Shard:     shard,
					Band:      band,
					LatencyMS: float64(time.Since(t0)) / float64(time.Millisecond),
					Retries:   retries,
					HedgeWin:  hedgeWin,
				}
				if err != nil {
					o.sp.Missing, o.sp.Error = true, err.Error()
					sspan.SetError(err)
					sspan.SetAttr("missing", "true")
				} else {
					o.sp.FrameBytes, o.sp.Rows = resp.frameBytes, resp.rows
					sspan.SetAttr("frame_bytes", strconv.Itoa(resp.frameBytes))
					sspan.SetAttr("rows", strconv.Itoa(resp.rows))
					if resp.Trace != nil {
						sspan.AttachRemote(*resp.Trace)
					}
					if resp.Profile != nil {
						o.sp.Profile = *resp.Profile
					}
				}
				if retries > 0 {
					sspan.SetAttr("retries", strconv.Itoa(retries))
				}
				if hedgeWin {
					sspan.SetAttr("hedge_win", "true")
					c.met.hedgeWins.Inc()
				}
			}(&outs[si*len(bands)+bi], shard, band)
		}
	}
	wg.Wait()
	return outs
}

// foldShards books a scatter into p: the answering slots' scan cost into
// the totals and one Shards entry per slot (a failed slot's profile is
// zero, its entry says Missing).
func foldShards(p *core.Profile, outs []slotOutcome) {
	for _, o := range outs {
		p.Add(o.sp.Profile)
		p.Shards = append(p.Shards, o.sp)
	}
}

// appendRows appends one shard's decoded rows to dst, per table: rows
// concatenate shard-major, and every shard must have scanned a table in
// the same layout.
func appendRows(dst map[string]*telco.Table, resp *exploreResponse) error {
	for name, t := range resp.Rows {
		have, ok := dst[name]
		switch {
		case !ok:
			dst[name] = t
		case !slices.Equal(have.Schema.Fields, t.Schema.Fields):
			return fmt.Errorf("cluster: rows table %q: shards answered in layouts %v and %v", name, have.Schema, t.Schema)
		default:
			have.Rows = append(have.Rows, t.Rows...)
		}
	}
	return nil
}

// Explore evaluates Q(a, b, w) across the cluster: the window selects the
// time shards to scatter to, the box selects the bands, and the gathered
// summary parts fold in one flat chronological merge — the association
// order a single engine uses, so the aggregates match it bit for bit.
// Shards that fail every attempt degrade the answer instead of failing it:
// Partial is set and their owned window ranges are listed in Missing. Only
// when every touched shard fails does Explore return an error.
func (c *Coordinator) Explore(ctx context.Context, q core.Query) (*Result, error) {
	shards := c.smap.TimeShardsFor(q.Window)
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: empty window")
	}
	bands := c.smap.BandsFor(q.Box)
	c.met.explores.Inc()

	// Root the distributed trace; the slot spans of the scatter nest here.
	ctx, span := c.cfg.Tracer.StartSpan(ctx, "cluster_explore")
	defer span.End()
	span.SetAttr("shards", strconv.Itoa(len(shards)))
	span.SetAttr("bands", strconv.Itoa(len(bands)))

	req := exploreRequest{
		FromUnix: q.Window.From.Unix(),
		ToUnix:   q.Window.To.Unix(),
		Rows:     q.ExactRows,
		Tables:   q.Tables,
	}
	if q.Box != (geo.Rect{}) {
		req.Boxed = true
		req.MinX, req.MinY, req.MaxX, req.MaxY = q.Box.MinX, q.Box.MinY, q.Box.MaxX, q.Box.MaxY
	}
	outs := c.scatter(ctx, shards, bands, req)

	res := &Result{Result: core.Result{ServedPeriod: q.Window}, ShardsQueried: len(shards), TraceID: span.TraceID()}
	res.Profile.TraceID = res.TraceID
	foldShards(&res.Profile, outs)
	fail := func(err error) (*Result, error) {
		span.SetError(err)
		return nil, err
	}
	failed := make(map[int]bool)
	leaves, live := 0, 0
	var parts []*highlights.Summary
	var firstErr error
	for _, o := range outs {
		res.Retries += o.sp.Retries
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			failed[o.sp.Shard] = true
			continue
		}
		if o.sp.HedgeWin {
			res.HedgeWins++
		}
		res.ScannedLeaves += o.resp.Scanned
		res.DecayedLeaves += o.resp.Decayed
		leaves += o.resp.Leaves
		live += o.resp.Live
		parts = append(parts, o.resp.Parts...)
	}
	if len(failed) == len(shards) {
		return fail(fmt.Errorf("cluster: all %d shards failed: %w", len(shards), firstErr))
	}
	if len(failed) == 0 && leaves == 0 && live == 0 {
		// Every reachable shard is empty — no sealed leaves and no unsealed
		// memtable rows anywhere — mirror the single engine.
		return nil, fmt.Errorf("core: no data ingested")
	}

	// One flat chronological fold, exactly like a monolithic engine's merge
	// stage. Parts from different slots are disjoint in time (or disjoint
	// in cells under a spatial split), so ordering by period start
	// reproduces the single engine's association order. The parts were
	// decoded in the replicas' goroutines; only the merge is left here.
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].Period.From.Before(parts[j].Period.From) })
	span.SetAttr("parts", strconv.Itoa(len(parts)))
	merged := highlights.Merge(q.Window, parts...)
	res.Summary, res.Cells = c.cells.Restrict(merged, q.Box, q.Attrs)
	res.Highlights = merged.Extract(c.cfg.Theta)

	if q.ExactRows {
		res.Rows = make(map[string]*telco.Table)
		for _, o := range outs {
			if o.err != nil {
				continue
			}
			if err := appendRows(res.Rows, o.resp); err != nil {
				return fail(err)
			}
		}
	}

	if len(failed) > 0 {
		res.Partial = true
		res.ShardsFailed = len(failed)
		c.met.partials.Inc()
		order := make([]int, 0, len(failed))
		for s := range failed {
			order = append(order, s)
		}
		sort.Ints(order)
		for _, s := range order {
			c.met.shardMiss[s].Inc()
			res.Missing = append(res.Missing, c.smap.OwnedRanges(s, q.Window)...)
		}
		span.SetAttr("partial", "true")
	}
	// A caller-side profile (e.g. EXPLAIN ANALYZE over the cluster catalog)
	// absorbs the shard totals and the per-shard split.
	if p := core.ProfileFromContext(ctx); p != nil {
		p.Add(res.Profile)
		p.Shards = append(p.Shards, res.Profile.Shards...)
	}
	return res, nil
}

// AggregatePartials evaluates a pushed-down aggregate spec across the
// cluster: every slot the window touches folds the spec over its shard's
// rows and the partials merge key-wise — partial aggregate merging is
// associative and commutative, so the merged answer matches a single
// engine over the union of the shards bit for bit. Unlike Explore, a shard
// failing all its retries fails the whole call (ErrDegraded).
func (c *Coordinator) AggregatePartials(ctx context.Context, w telco.TimeRange, table string, spec *scanspec.Spec) ([]scanspec.Partial, error) {
	if !spec.IsAggregate() {
		return nil, fmt.Errorf("cluster: AggregatePartials needs an aggregate spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	req := exploreRequest{FromUnix: w.From.Unix(), ToUnix: w.To.Unix(), AggTable: table, Spec: spec}
	resps, err := c.scatterStrict(ctx, w, req, "cluster_aggregate")
	if err != nil {
		return nil, err
	}
	var merged []scanspec.Partial
	for _, r := range resps {
		merged = scanspec.Merge(merged, r.Partials)
	}
	return merged, nil
}

// ScanRows runs the exact-row path alone across the cluster with an
// optional pushdown spec: shards pre-filter rows on the spec's predicates
// and exact window, materialize only the referenced columns, and ship the
// surviving rows in that narrow layout, which concatenate shard-major per
// table (the SQL executor imposes any ordering itself). The returned
// tables are exactly what a single engine's ScanTablesSpec hands out: the
// same layout — the referenced columns plus the timestamp, in stored order
// (the stored table itself when the spec names no columns) — and the same
// rows, value for value; a table comes back even when no row of it passed.
// No shard builds summary parts for it. Like AggregatePartials — and unlike
// Explore — any shard failing all retries fails the call.
func (c *Coordinator) ScanRows(ctx context.Context, w telco.TimeRange, tables []string, spec *scanspec.Spec) (map[string]*telco.Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec == nil {
		// The empty spec keeps every column; carrying one marks the request
		// rows-only, so no shard builds summary parts.
		spec = &scanspec.Spec{}
	}
	req := exploreRequest{FromUnix: w.From.Unix(), ToUnix: w.To.Unix(), Rows: true, Tables: tables, Spec: spec}
	resps, err := c.scatterStrict(ctx, w, req, "cluster_scan_rows")
	if err != nil {
		return nil, err
	}
	out := make(map[string]*telco.Table)
	for _, r := range resps {
		if err := appendRows(out, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scatterStrict is the scatter of the SQL paths: req goes to every slot
// the window touches (all bands — these paths carry no spatial predicate)
// and every one of them has to answer; the lowest failed slot's error
// fails the call. Shard profiles fold into the caller's context profile
// with a per-shard split, so EXPLAIN ANALYZE over the cluster catalog
// reports the scatter.
func (c *Coordinator) scatterStrict(ctx context.Context, w telco.TimeRange, req exploreRequest, op string) ([]*exploreResponse, error) {
	shards := c.smap.TimeShardsFor(w)
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: empty window")
	}
	c.met.explores.Inc()
	ctx, span := c.cfg.Tracer.StartSpan(ctx, op)
	defer span.End()
	span.SetAttr("shards", strconv.Itoa(len(shards)))

	outs := c.scatter(ctx, shards, c.smap.BandsFor(geo.Rect{}), req)
	resps := make([]*exploreResponse, len(outs))
	for i, o := range outs {
		if o.err != nil {
			err := fmt.Errorf("%w: shard %d failed after %d retries: %w", ErrDegraded, o.sp.Shard, o.sp.Retries, o.err)
			if ctx.Err() != nil {
				err = ctx.Err() // the caller gave up; no shard is to blame
			}
			span.SetError(err)
			return nil, err
		}
		resps[i] = o.resp
	}
	if prof := core.ProfileFromContext(ctx); prof != nil {
		if prof.TraceID == "" {
			prof.TraceID = span.TraceID()
		}
		foldShards(prof, outs)
	}
	return resps, nil
}

// exploreSlot reads one slot with bounded retries; each attempt hedges
// across the slot's replicas.
func (c *Coordinator) exploreSlot(ctx context.Context, slot int, req exploreRequest) (resp *exploreResponse, retries int, hedgeWin bool, err error) {
	shard := c.smap.SlotShard(slot)
	start := time.Now()
	defer func() { c.met.exploreSec[shard].Observe(time.Since(start).Seconds()) }()
	retries, err = c.retry(ctx, "explore", func(attempt int) (bool, error) {
		var err error
		resp, hedgeWin, err = c.hedgedExplore(ctx, slot, req, attempt)
		return false, err
	})
	return resp, retries, hedgeWin, err
}

// hedgedExplore performs one read attempt against a slot's replica group:
// the first replica is asked immediately, and every HedgeDelay without an
// answer the next replica is asked too (a hedge); a replica that fails
// fast triggers the next immediately (a failover). The first success wins.
// The winning read reports whether it was a hedge — a request launched on
// delay while an earlier one was still pending.
func (c *Coordinator) hedgedExplore(ctx context.Context, slot int, req exploreRequest, attempt int) (*exploreResponse, bool, error) {
	urls := c.nodes[slot]
	shard := c.smap.SlotShard(slot)
	actx, cancel := context.WithTimeout(ctx, c.cfg.ExploreTimeout)
	defer cancel()

	type reply struct {
		resp  *exploreResponse
		err   error
		hedge bool
	}
	ch := make(chan reply, len(urls))
	launch := func(i int, hedge bool) {
		// Successive attempts rotate the replica asked first.
		url := urls[(attempt+i)%len(urls)]
		go func() {
			// The answer's frame is decoded here, in the replica's own
			// goroutine — its parts, rows and partials: slots decode in
			// parallel, and a malformed frame, part, rows table or partial
			// fails this replica alone (failover, hedge, retry).
			resp, err := c.cl.explore(actx, url, req)
			ch <- reply{resp, err, hedge}
		}()
	}
	launch(0, false)
	launched, failed := 1, 0
	var hedgeC <-chan time.Time
	var timer *time.Timer
	if len(urls) > 1 {
		timer = time.NewTimer(c.cfg.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.resp, r.hedge, nil
			}
			c.met.shardErrors[shard].Inc()
			if firstErr == nil {
				firstErr = r.err
			}
			failed++
			if launched < len(urls) {
				launch(launched, false) // fast failover
				launched++
			} else if failed == launched {
				return nil, false, firstErr
			}
		case <-hedgeC:
			if launched < len(urls) {
				c.met.hedged.Inc()
				launch(launched, true)
				launched++
			}
			if launched < len(urls) {
				timer.Reset(c.cfg.HedgeDelay)
			} else {
				hedgeC = nil
			}
		case <-actx.Done():
			return nil, false, actx.Err()
		}
	}
}

// Health polls every node, keyed by base URL.
func (c *Coordinator) Health(ctx context.Context) map[string]error {
	urls := c.allNodes()
	errs := fanOut(len(urls), func(i int) error {
		return c.cl.get(ctx, urls[i], "/rpc/health", new(healthResponse))
	})
	out := make(map[string]error, len(urls))
	for i, u := range urls {
		out[u] = errs[i]
	}
	return out
}
