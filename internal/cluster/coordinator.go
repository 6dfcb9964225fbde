package cluster

import (
	"context"
	"fmt"
	"net/http"
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
	cells map[int64]geo.Point
	cellQ geo.SpatialIndex
	met   *clusterMetrics
}

// Result is a scatter-gathered exploration answer. It mirrors the
// single-engine core.Result for the fields a UI renders, plus the
// degradation contract: a Result with Partial set is a correct answer for
// the window minus the Missing ranges.
type Result struct {
	// Summary aggregates the window restricted to the box's cells.
	Summary *highlights.Summary
	// Cells is the per-cell breakdown inside the box.
	Cells []core.CellSeries
	// Highlights are extracted from the merged window summary with the
	// coordinator's θ.
	Highlights []highlights.Highlight
	// Rows holds exact records per table when requested.
	Rows map[string]*telco.Table
	// ServedPeriod is the period the aggregates describe.
	ServedPeriod telco.TimeRange

	// Partial marks a degraded answer: at least one shard failed all its
	// retries and its data is absent from the aggregates.
	Partial bool
	// Missing enumerates the window time-ranges owned by failed shards, in
	// chronological order per shard.
	Missing []telco.TimeRange

	// ScannedLeaves and DecayedLeaves sum the shards' reports.
	ScannedLeaves int
	DecayedLeaves int
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
	// Profile totals the surviving shards' scan cost, with the per-shard
	// split in Profile.Shards (failed slots appear with Missing/Error set
	// and a zero profile).
	Profile core.Profile
}

// NewCoordinator wires a coordinator for the given topology. nodes is
// slot-major — nodes[slot] lists the replica base URLs (http://host:port)
// serving that slot, slot = timeShard*bands + band. cellTable is the same
// cell inventory the shard engines were opened with; the coordinator needs
// it to restrict merged summaries spatially, exactly like a single engine.
func NewCoordinator(cfg Config, m *ShardMap, nodes [][]string, cellTable *telco.Table) (*Coordinator, error) {
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
	c := &Coordinator{
		cfg:   cfg,
		smap:  m,
		nodes: nodes,
		cl:    newClient(),
		cells: make(map[int64]geo.Point),
		met:   newClusterMetrics(cfg.Obs, m.Shards),
	}
	idIdx := cellTable.Schema.FieldIndex(telco.AttrCellID)
	xIdx := cellTable.Schema.FieldIndex("x_km")
	yIdx := cellTable.Schema.FieldIndex("y_km")
	if idIdx < 0 || xIdx < 0 || yIdx < 0 {
		return nil, fmt.Errorf("cluster: cell table %q lacks cell_id/x_km/y_km", cellTable.Schema.Name)
	}
	bounds := geo.NewRect(0, 0, 1, 1)
	first := true
	for _, r := range cellTable.Rows {
		pt := geo.Point{X: r[xIdx].Float64(), Y: r[yIdx].Float64()}
		c.cells[r[idIdx].Int64()] = pt
		if first {
			bounds = geo.NewRect(pt.X, pt.Y, pt.X+1e-6, pt.Y+1e-6)
			first = false
		} else {
			bounds = bounds.Expand(pt)
		}
	}
	qt := geo.NewQuadTree(bounds, 0)
	for id, pt := range c.cells {
		qt.Insert(geo.Item{Pt: pt, ID: id, Weight: 1})
	}
	c.cellQ = qt
	return c, nil
}

// Map exposes the coordinator's shard map.
func (c *Coordinator) Map() *ShardMap { return c.smap }

// Ingest routes one snapshot to the replica group(s) owning its epoch:
// the time shard is the epoch's block owner, and under a spatial split
// each band slot receives only the rows of cells inside its band. Every
// replica of a touched slot is written (write-all) with bounded retries;
// any replica failing all attempts fails the ingest.
func (c *Coordinator) Ingest(ctx context.Context, snap *snapshot.Snapshot) error {
	shard := c.smap.TimeShardOf(snap.Epoch)
	start := time.Now()
	reqs, err := c.splitSnapshot(snap)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errc := make(chan error, len(reqs)*c.cfg.Replicas)
	for band, req := range reqs {
		if req == nil {
			continue // no rows for this band
		}
		slot := c.smap.Slot(shard, band)
		for _, url := range c.nodes[slot] {
			wg.Add(1)
			go func(url string, req *ingestRequest) {
				defer wg.Done()
				if err := c.writeReplica(ctx, shard, url, req); err != nil {
					errc <- err
				}
			}(url, req)
		}
	}
	wg.Wait()
	close(errc)
	c.met.ingests.Inc()
	c.met.ingestSec[shard].Observe(time.Since(start).Seconds())
	return <-errc // nil when no replica failed
}

// splitSnapshot renders the per-band ingest requests of one snapshot —
// a single request holding every table when there is no spatial split.
func (c *Coordinator) splitSnapshot(snap *snapshot.Snapshot) ([]*ingestRequest, error) {
	names := snap.TableNames()
	if c.smap.NumBands() == 1 {
		req := &ingestRequest{Epoch: int64(snap.Epoch), Tables: make(map[string][]byte, len(names))}
		for _, name := range names {
			data, err := snap.EncodeTable(name)
			if err != nil {
				return nil, err
			}
			req.Tables[name] = data
		}
		return []*ingestRequest{req}, nil
	}
	// Spatial split: route each row to the band of its cell. Rows of
	// unknown cells land in band 0 so nothing is dropped.
	split := make([]*snapshot.Snapshot, c.smap.NumBands())
	for _, name := range names {
		src := snap.Table(name)
		cellIdx := src.Schema.FieldIndex(telco.AttrCellID)
		parts := make([]*telco.Table, len(split))
		for i := range parts {
			parts[i] = telco.NewTable(src.Schema)
		}
		for _, row := range src.Rows {
			band := 0
			if cellIdx >= 0 {
				if pt, ok := c.cells[row[cellIdx].Int64()]; ok {
					band = c.smap.BandOf(pt)
				}
			}
			parts[band].Append(row)
		}
		for band, t := range parts {
			if split[band] == nil {
				split[band] = snapshot.New(snap.Epoch)
			}
			split[band].Add(t)
		}
	}
	reqs := make([]*ingestRequest, len(split))
	for band, s := range split {
		if s == nil {
			continue
		}
		req := &ingestRequest{Epoch: int64(snap.Epoch), Tables: make(map[string][]byte)}
		for _, name := range s.TableNames() {
			data, err := s.EncodeTable(name)
			if err != nil {
				return nil, err
			}
			req.Tables[name] = data
		}
		reqs[band] = req
	}
	return reqs, nil
}

func (c *Coordinator) writeReplica(ctx context.Context, shard int, url string, req *ingestRequest) error {
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.met.retries["ingest"].Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
		}
		actx, cancel := context.WithTimeout(ctx, c.cfg.IngestTimeout)
		var resp ingestResponse
		err := c.cl.post(actx, url, "/rpc/ingest", req, &resp)
		cancel()
		if err == nil {
			return nil
		}
		c.met.shardErrors[shard].Inc()
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return lastErr
}

// Append routes streaming rows to the slots owning them — the time shard
// is each row's epoch block owner, the band its cell's under a spatial
// split — and writes every replica of a touched slot (write-all, bounded
// retries), mirroring Ingest so streamed and batch-loaded data land on
// the same nodes. Rows travel as wire-text lines and apply through each
// node's WAL + memtable, so they are explorable when Append returns.
// A replica refusing for backpressure surfaces as core.ErrBackpressure,
// rows of already-sealed epochs as core.ErrStaleEpoch.
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
			if pt, ok := c.cells[rec[cellIdx].Int64()]; ok {
				band = c.smap.BandOf(pt)
			}
		}
		slot := c.smap.Slot(shard, band)
		bySlot[slot] = append(bySlot[slot], rec.Line())
	}
	var wg sync.WaitGroup
	errc := make(chan error, len(bySlot)*c.cfg.Replicas)
	for slot, lines := range bySlot {
		req := &appendRequest{Table: table, Rows: lines}
		shard := c.smap.SlotShard(slot)
		for _, url := range c.nodes[slot] {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				if err := c.appendReplica(ctx, shard, url, req); err != nil {
					errc <- err
				}
			}(url)
		}
	}
	wg.Wait()
	close(errc)
	c.met.appends.Inc()
	if err := <-errc; err != nil {
		return 0, err
	}
	return len(recs), nil
}

// appendReplica writes one slot's append batch to one replica with
// bounded retries, translating the peer's typed refusals (429
// backpressure, 409 stale/finalized) back into their sentinel errors.
func (c *Coordinator) appendReplica(ctx context.Context, shard int, url string, req *appendRequest) error {
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.met.retries["append"].Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
		}
		actx, cancel := context.WithTimeout(ctx, c.cfg.IngestTimeout)
		var resp appendResponse
		err := c.cl.post(actx, url, "/rpc/append", req, &resp)
		cancel()
		if err == nil {
			return nil
		}
		c.met.shardErrors[shard].Inc()
		lastErr = err
		if httpStatus(err) == http.StatusConflict {
			break // stale epoch / finalized store: retrying cannot help
		}
		if ctx.Err() != nil {
			break
		}
	}
	switch httpStatus(lastErr) {
	case http.StatusTooManyRequests:
		// Re-type the shard's refusal so errors.Is(err, ErrBackpressure)
		// still matches and the shard's Retry-After hint survives the hop
		// (the HTTP layer surfaces it to the originating client).
		return fmt.Errorf("%w: %v", &core.BackpressureError{RetryAfter: retryAfterOf(lastErr)}, lastErr)
	case http.StatusConflict:
		return fmt.Errorf("%w: %v", core.ErrStaleEpoch, lastErr)
	}
	return lastErr
}

// FlushStreams broadcasts a seal-all to every node's streamer: each
// drains its pending appends and seals every buffered epoch into leaves.
// Nodes without a streamer refuse with 503, which is tolerated — a mixed
// batch/stream topology flushes the streaming nodes and skips the rest.
func (c *Coordinator) FlushStreams(ctx context.Context) error {
	req := &appendRequest{Seal: true}
	var wg sync.WaitGroup
	errc := make(chan error, len(c.nodes)*c.cfg.Replicas)
	for _, urls := range c.nodes {
		for _, url := range urls {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				var resp appendResponse
				if err := c.cl.post(ctx, url, "/rpc/append", req, &resp); err != nil {
					if httpStatus(err) == http.StatusServiceUnavailable {
						return // batch-only node: nothing to flush
					}
					errc <- err
				}
			}(url)
		}
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// FinishIngest broadcasts the ingest-finished seal to every node so open
// day/month/year nodes materialize their summaries.
func (c *Coordinator) FinishIngest(ctx context.Context) error {
	var wg sync.WaitGroup
	errc := make(chan error, len(c.nodes)*c.cfg.Replicas)
	for _, urls := range c.nodes {
		for _, url := range urls {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				if err := c.cl.post(ctx, url, "/rpc/finish", struct{}{}, nil); err != nil {
					errc <- err
				}
			}(url)
		}
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// Explore evaluates Q(a, b, w) across the cluster: the window selects the
// time shards to scatter to, the box selects the bands, each slot is read
// from any replica (hedged, with bounded retries), and the gathered
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

	// Root the distributed trace: every slot RPC below runs under a child
	// span whose identity travels in the X-Spate-Trace header, so the
	// shard-side subtrees returned on the responses stitch into one
	// coordinator-rooted tree.
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

	type slotResult struct {
		resp     *exploreResponse
		retries  int
		hedgeWin bool
		latency  time.Duration
		err      error
	}
	results := make([]slotResult, len(shards)*len(bands))
	var wg sync.WaitGroup
	for si, shard := range shards {
		for bi, band := range bands {
			wg.Add(1)
			go func(i, slot, shard, band int) {
				defer wg.Done()
				// Each slot gets its own child span: its id rides out in the
				// RPC header, and the shard's recorded subtree is grafted
				// back under it. A failed slot keeps its span — annotated,
				// not dropped — so a partial answer's trace shows the hole.
				sctx, sspan := c.cfg.Tracer.StartSpan(ctx, "slot_explore")
				sspan.SetAttr("shard", strconv.Itoa(shard))
				sspan.SetAttr("band", strconv.Itoa(band))
				r := &results[i]
				t0 := time.Now()
				r.resp, r.retries, r.hedgeWin, r.err = c.exploreSlot(sctx, slot, req)
				r.latency = time.Since(t0)
				if r.err != nil {
					sspan.SetError(r.err)
					sspan.SetAttr("missing", "true")
				} else if r.resp.Trace != nil {
					sspan.AttachRemote(*r.resp.Trace)
				}
				if r.retries > 0 {
					sspan.SetAttr("retries", strconv.Itoa(r.retries))
				}
				if r.hedgeWin {
					sspan.SetAttr("hedge_win", "true")
				}
				sspan.End()
			}(si*len(bands)+bi, c.smap.Slot(shard, band), shard, band)
		}
	}
	wg.Wait()

	res := &Result{ServedPeriod: q.Window, ShardsQueried: len(shards), TraceID: span.TraceID()}
	res.Profile.TraceID = res.TraceID
	failed := make(map[int]bool)
	leaves, live := 0, 0
	var parts []*highlights.Summary
	var firstErr error
	for i, r := range results {
		shard := shards[i/len(bands)]
		band := bands[i%len(bands)]
		res.Retries += r.retries
		sp := core.ShardProfile{
			Shard:     shard,
			Band:      band,
			LatencyMS: float64(r.latency) / float64(time.Millisecond),
			Retries:   r.retries,
			HedgeWin:  r.hedgeWin,
		}
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			failed[shard] = true
			sp.Missing = true
			sp.Error = r.err.Error()
			res.Profile.Shards = append(res.Profile.Shards, sp)
			continue
		}
		if r.hedgeWin {
			res.HedgeWins++
			c.met.hedgeWins.Inc()
		}
		res.ScannedLeaves += r.resp.Scanned
		res.DecayedLeaves += r.resp.Decayed
		leaves += r.resp.Leaves
		live += r.resp.Live
		if r.resp.Profile != nil {
			sp.Profile = *r.resp.Profile
			res.Profile.Add(sp.Profile)
		}
		res.Profile.Shards = append(res.Profile.Shards, sp)
		for _, blob := range r.resp.Parts {
			p, err := highlights.Decode(blob)
			if err != nil {
				err = fmt.Errorf("cluster: shard %d part: %w", shard, err)
				span.SetError(err)
				return nil, err
			}
			parts = append(parts, p)
		}
	}
	if len(failed) == len(shards) {
		err := fmt.Errorf("cluster: all %d shards failed: %w", len(shards), firstErr)
		span.SetError(err)
		return nil, err
	}
	if len(failed) == 0 && leaves == 0 && live == 0 {
		// Every reachable shard is empty — no sealed leaves and no unsealed
		// memtable rows anywhere — mirror the single engine.
		return nil, fmt.Errorf("core: no data ingested")
	}

	// One flat chronological fold, exactly like a monolithic engine's merge
	// stage. Parts from different slots are disjoint in time (or disjoint
	// in cells under a spatial split), so ordering by period start
	// reproduces the single engine's association order.
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].Period.From.Before(parts[j].Period.From) })
	merged := highlights.Merge(q.Window, parts...)
	res.Summary, res.Cells = c.restrictToBox(merged, q)
	res.Highlights = merged.Extract(c.cfg.Theta)

	if q.ExactRows {
		res.Rows = make(map[string]*telco.Table)
		for _, r := range results {
			if r.err != nil {
				continue
			}
			for name, data := range r.resp.Rows {
				t, err := snapshot.DecodeTable(name, data)
				if err != nil {
					return nil, fmt.Errorf("cluster: rows table %q: %w", name, err)
				}
				if dst, ok := res.Rows[name]; ok {
					for _, row := range t.Rows {
						dst.Append(row)
					}
				} else {
					res.Rows[name] = t
				}
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
// rows (hedged, bounded retries) and the partials merge key-wise — partial
// aggregate merging is associative and commutative, so the merged answer
// matches a single engine over the union of the shards bit for bit. Unlike
// Explore, a shard failing all its retries fails the whole call: SQL
// answers must be complete or absent.
func (c *Coordinator) AggregatePartials(ctx context.Context, w telco.TimeRange, table string, spec *scanspec.Spec) ([]scanspec.Partial, error) {
	if !spec.IsAggregate() {
		return nil, fmt.Errorf("cluster: AggregatePartials needs an aggregate spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.met.explores.Inc()
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
// surviving rows, which concatenate shard-major per table (the SQL
// executor imposes any ordering itself). The RPC's row text is always
// full-width, so the returned tables carry the stored table's schema with
// NULL in every column the shards did not decode. Like AggregatePartials
// — and unlike Explore — any shard failing all retries fails the call.
func (c *Coordinator) ScanRows(ctx context.Context, w telco.TimeRange, tables []string, spec *scanspec.Spec) (map[string]*telco.Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.met.explores.Inc()
	req := exploreRequest{FromUnix: w.From.Unix(), ToUnix: w.To.Unix(), Rows: true, Tables: tables, Spec: spec}
	resps, err := c.scatterStrict(ctx, w, req, "cluster_scan_rows")
	if err != nil {
		return nil, err
	}
	out := make(map[string]*telco.Table)
	for _, r := range resps {
		for name, data := range r.Rows {
			t, err := snapshot.DecodeTable(name, data)
			if err != nil {
				return nil, fmt.Errorf("cluster: rows table %q: %w", name, err)
			}
			if dst, ok := out[name]; ok {
				for _, row := range t.Rows {
					dst.Append(row)
				}
			} else {
				out[name] = t
			}
		}
	}
	return out, nil
}

// scatterStrict scatters one request to every slot the window touches
// (all bands — the SQL paths carry no spatial predicate) and gathers the
// responses, failing the whole call when any slot fails after retries.
// Shard profiles fold into the caller's context profile with a per-shard
// split, so EXPLAIN ANALYZE over the cluster catalog reports the scatter.
func (c *Coordinator) scatterStrict(ctx context.Context, w telco.TimeRange, req exploreRequest, op string) ([]*exploreResponse, error) {
	shards := c.smap.TimeShardsFor(w)
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: empty window")
	}
	bands := c.smap.BandsFor(geo.Rect{})
	ctx, span := c.cfg.Tracer.StartSpan(ctx, op)
	defer span.End()
	span.SetAttr("shards", strconv.Itoa(len(shards)))

	type slotResult struct {
		resp    *exploreResponse
		retries int
		hedge   bool
		latency time.Duration
		err     error
	}
	results := make([]slotResult, len(shards)*len(bands))
	var wg sync.WaitGroup
	for si, shard := range shards {
		for bi, band := range bands {
			wg.Add(1)
			go func(i, slot, shard, band int) {
				defer wg.Done()
				sctx, sspan := c.cfg.Tracer.StartSpan(ctx, "slot_explore")
				sspan.SetAttr("shard", strconv.Itoa(shard))
				sspan.SetAttr("band", strconv.Itoa(band))
				r := &results[i]
				t0 := time.Now()
				r.resp, r.retries, r.hedge, r.err = c.exploreSlot(sctx, slot, req)
				r.latency = time.Since(t0)
				if r.err != nil {
					sspan.SetError(r.err)
				} else if r.resp.Trace != nil {
					sspan.AttachRemote(*r.resp.Trace)
				}
				sspan.End()
			}(si*len(bands)+bi, c.smap.Slot(shard, band), shard, band)
		}
	}
	wg.Wait()

	prof := core.ProfileFromContext(ctx)
	if prof != nil && prof.TraceID == "" {
		prof.TraceID = span.TraceID()
	}
	out := make([]*exploreResponse, 0, len(results))
	for i, r := range results {
		shard := shards[i/len(bands)]
		if r.err != nil {
			err := fmt.Errorf("cluster: shard %d failed after %d retries: %w", shard, r.retries, r.err)
			span.SetError(err)
			return nil, err
		}
		if r.hedge {
			c.met.hedgeWins.Inc()
		}
		if prof != nil {
			sp := core.ShardProfile{
				Shard:     shard,
				Band:      bands[i%len(bands)],
				LatencyMS: float64(r.latency) / float64(time.Millisecond),
				Retries:   r.retries,
				HedgeWin:  r.hedge,
			}
			if r.resp.Profile != nil {
				sp.Profile = *r.resp.Profile
				prof.Add(sp.Profile)
			}
			prof.Shards = append(prof.Shards, sp)
		}
		out = append(out, r.resp)
	}
	return out, nil
}

// exploreSlot reads one slot with bounded retries; each attempt hedges
// across the slot's replicas.
func (c *Coordinator) exploreSlot(ctx context.Context, slot int, req exploreRequest) (*exploreResponse, int, bool, error) {
	shard := c.smap.SlotShard(slot)
	start := time.Now()
	defer func() { c.met.exploreSec[shard].Observe(time.Since(start).Seconds()) }()
	backoff := c.cfg.RetryBackoff
	retries := 0
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			retries++
			c.met.retries["explore"].Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, retries, false, ctx.Err()
			}
			backoff *= 2
		}
		resp, hedgeWin, err := c.hedgedExplore(ctx, slot, req, attempt)
		if err == nil {
			return resp, retries, hedgeWin, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, retries, false, lastErr
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
			var er exploreResponse
			err := c.cl.post(actx, url, "/rpc/explore", req, &er)
			ch <- reply{&er, err, hedge}
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
	out := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, urls := range c.nodes {
		for _, url := range urls {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				var resp healthResponse
				err := c.cl.get(ctx, url, "/rpc/health", &resp)
				mu.Lock()
				if _, dup := out[url]; !dup {
					out[url] = err
				}
				mu.Unlock()
			}(url)
		}
	}
	wg.Wait()
	return out
}

// restrictToBox mirrors the single engine's spatial restriction: keep the
// box's cells and rebuild the window aggregates from the per-cell
// breakdown, rendering the per-cell series view alongside.
func (c *Coordinator) restrictToBox(m *highlights.Summary, q core.Query) (*highlights.Summary, []core.CellSeries) {
	var inBox map[int64]bool
	out := m
	if q.Box != (geo.Rect{}) {
		inBox = make(map[int64]bool)
		for _, it := range c.cellQ.Query(q.Box, nil) {
			inBox[it.ID] = true
		}
		out = m.Restrict(func(id int64) bool { return inBox[id] })
	}
	want := make(map[highlights.AttrRef]bool, len(q.Attrs))
	for _, a := range q.Attrs {
		want[a] = true
	}
	var cells []core.CellSeries
	for id, cs := range m.Cells {
		if inBox != nil && !inBox[id] {
			continue
		}
		loc, ok := c.cells[id]
		if !ok {
			continue
		}
		series := core.CellSeries{CellID: id, Loc: loc, Rows: cs.Rows,
			Attr: make(map[highlights.AttrRef]*highlights.Stats)}
		for ref, st := range cs.Num {
			if len(want) == 0 || want[ref] {
				series.Attr[ref] = st
			}
		}
		cells = append(cells, series)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].CellID < cells[j].CellID })
	return out, cells
}
