package main

import (
	"context"
	"encoding/json"
	"runtime/metrics"
	"time"

	"spate/benchmarks/harness"
	"spate/internal/core"
	"spate/internal/geo"
	"spate/internal/obs"
	"spate/internal/serving"
	"spate/internal/telco"
)

func geoRect(b [4]float64) geo.Rect { return geo.NewRect(b[0], b[1], b[2], b[3]) }

// loopback is the HTTP side of the replay: the clients, the op sources and,
// on stream-mixed, the feed.
type loopback struct {
	t       *trun
	base    string
	ops     []harness.Op
	clients []*harness.Client
	sources []func() *harness.Job // per client, as in the end-to-end run
	feed    *harness.Feed
	feedEp  []time.Time
}

func (lp *loopback) close() {
	for _, c := range lp.clients {
		c.Close()
	}
	if lp.feed != nil {
		lp.feed.Close()
	}
}

// start wires the sources like the end-to-end driver does and brings the
// caches to steady state.
func (lp *loopback) start(fixed []harness.Op) error {
	st := lp.t.st
	lp.clients = []*harness.Client{harness.NewClient(lp.base), harness.NewClient(lp.base)}
	src := harness.ListSource(lp.ops)
	lp.sources = []func() *harness.Job{src, src}
	if st.spec.BaseEpochs > 0 {
		for _, e := range st.epochs[st.spec.BaseEpochs:] {
			lp.feedEp = append(lp.feedEp, e.Start())
		}
		lp.feed = harness.StartFeed(st.traceDir, lp.feedEp)
		lp.sources = []func() *harness.Job{lp.feed.Next,
			harness.StreamSource(st.spec, st.window.From, lp.ops, lp.feed, lp.feedEp)}
	}
	if st.spec.Prefill {
		lp.count(harness.RunPhase(lp.clients[:1], []func() *harness.Job{harness.OnceSource(fixed)}, time.Hour))
	}
	lp.count(harness.RunPhase(lp.clients, lp.sources, time.Second))
	return nil
}

// count books a phase's requests as attempted and its failures as failed.
func (lp *loopback) count(p *harness.Phase) {
	for _, outs := range p.Outcomes {
		for i := range outs {
			o := &outs[i]
			lp.t.attempted++
			if o.Failed() {
				lp.t.fail("%s %s: status %d err %v", o.Job.Op.Class, o.Job.Path, o.Status, o.Err)
			}
		}
	}
}

// scrape reads the process-wide registry the way /api/stats serves it.
func scrape() harness.Scrape {
	b, err := json.Marshal(obs.Default.Snapshot())
	if err != nil {
		return nil
	}
	s, _ := harness.ParseScrape(b)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// loadPass is the end-to-end load shape, untraced: two closed-loop clients
// over loopback HTTP. The differences of the program's own counters across
// it are the scraped per-layer metrics, and its latencies give the
// per-endpoint tails.
func (lp *loopback) loadPass(dur time.Duration) {
	t, st := lp.t, lp.t.st
	before := scrape()
	var lru0 serving.CacheStats
	if st.lru != nil {
		lru0 = st.lru.Stats()
	}
	// The memtable's size is a gauge: its peak has to be sampled.
	var peak int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		if st.streamer == nil {
			return
		}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n := st.streamer.Memtable().Rows(); n > peak {
					peak = n
				}
			}
		}
	}()
	p := harness.RunPhase(lp.clients, lp.sources, dur)
	close(stop)
	<-sampled
	after := scrape()
	lp.count(p)

	var explore, sql, appends []float64
	var ops float64
	for _, outs := range p.Outcomes {
		for i := range outs {
			o := &outs[i]
			if o.Failed() {
				continue
			}
			ops++
			switch {
			case o.Job.Body != nil:
				appends = append(appends, o.Ms)
			case harness.IsSQL(o.Job.Op.Class):
				sql = append(sql, o.Ms)
			default:
				explore = append(explore, o.Ms)
			}
		}
	}
	t.m["webui.explore_p99_ms"] = harness.Percentile(explore, 99)
	t.m["webui.sql_p99_ms"] = harness.Percentile(sql, 99)
	t.m["webui.append_p99_ms"] = harness.Percentile(appends, 99)

	d := func(name string, labels ...string) float64 {
		return after.Total(name, labels...) - before.Total(name, labels...)
	}
	qc0, qs0 := before.Hist("spate_serving_queue_wait_seconds")
	qc1, qs1 := after.Hist("spate_serving_queue_wait_seconds")
	t.m["serving.queue_wait_ms"] = harness.Div((qs1-qs0)*1000, float64(qc1-qc0))
	t.m["serving.shed_ratio"] = harness.Ratio(d("spate_serving_shed_total"), d("spate_serving_admitted_total"))
	if st.lru != nil {
		s := st.lru.Stats()
		t.m["serving.lru_hit_ratio"] = harness.Ratio(float64(s.Hits-lru0.Hits), float64(s.Misses-lru0.Misses))
		t.m["serving.lru_evictions"] = float64(s.Evictions - lru0.Evictions)
	}
	t.m["core.result_cache_hit_ratio"] = harness.Ratio(d("spate_explore_cache_hits_total"), d("spate_explore_cache_misses_total"))
	t.m["core.singleflight_shared"] = d("spate_result_singleflight_shared_total") + d("spate_scan_singleflight_shared_total")
	t.m["segment.chunk_cache_hit_ratio"] = harness.Ratio(d("spate_chunk_cache_hits_total"), d("spate_chunk_cache_misses_total"))
	t.m["dfs.kb_read_per_op"] = harness.Div(d("spate_dfs_read_bytes_total")/1024, ops)
	t.m["wal.fsyncs_per_kbatch"] = harness.Div(d("spate_wal_fsyncs_total"), d("spate_stream_append_batches_total")/1000)
	t.m["wal.bytes_per_row"] = harness.Div(d("spate_wal_append_bytes_total"), d("spate_stream_append_rows_total"))
	t.m["memtable.rows_peak"] = float64(peak)
	t.m["cluster.retries"] = d("spate_cluster_retries_total")
	t.m["cluster.hedge_wins"] = d("spate_cluster_hedge_wins_total")
	ic, is := after.Hist("spate_ingest_seconds")
	t.m["core.ingest_snapshot_ms"] = harness.Div(is*1000, float64(ic))
	t.rep.Extra["load_pass_ops"] = ops
	t.rep.Extra["seals_in_load_pass"] = d("spate_stream_seals_total")
}

// replay is the single-caller pass: one request at a time, in rounds of one
// job from every source. Of six rounds two go over loopback HTTP with
// tracing on, one with tracing off, and every other one is direct calls. The
// two instruments so share one stretch of the op list, of the caches' state
// and, on stream-mixed, of the writer's progress through the day: what the
// direct calls say the engine costs can be set against what the loopback
// requests spent below the handler.
type replay struct {
	t  *trun
	lp *loopback

	// The program's own clocks under the HTTP handlers: exploring, running
	// SQL, appending. Their sums are read either side of every request.
	clocks []*obs.Histogram

	// Loopback requests, tracing on and off: latencies per class in ms, and
	// of the traced ones the spans and what the clocks reported.
	traced, plain    map[string][]float64
	selfNs, totalNs  map[string]int64
	spanCount        map[string]float64
	engineMs, respKB float64

	// Direct calls.
	explores, stageGap, appends, shardLat, shardMax, mergeMs, rpcOver []float64
	fanout, directOps, allocBytes                                     float64
	prof                                                              core.Profile

	// Operations left out of every figure of the pass because an epoch was
	// being sealed in the background while they ran. A seal takes both cores
	// for some hundred milliseconds and lands on whichever instrument has
	// the turn, so it would decide the comparison between the two.
	disturbed float64
}

// sealing reports a finished epoch still in the memtable: the sealer is at
// work on it.
func (s *stack) sealing() bool {
	return s.streamer != nil && len(s.streamer.Memtable().Epochs(0)) > 1
}

// undisturbed runs fn and reports whether no epoch was sealed meanwhile.
func (s *stack) undisturbed(fn func()) bool {
	if s.streamer == nil {
		fn()
		return true
	}
	last, _ := s.eng.LastEpoch()
	busy := s.sealing()
	fn()
	now, _ := s.eng.LastEpoch()
	return !busy && !s.sealing() && now == last
}

func (rp *replay) engineSeconds() float64 {
	var sum float64
	for _, h := range rp.clocks {
		sum += h.Sum()
	}
	return sum
}

// heapAllocs is the bytes allocated on the heap so far.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// replayPass runs the single-caller pass for dur and turns it into the
// traced and the direct per-layer metrics.
func (t *trun) replayPass(lp *loopback, dur time.Duration) {
	st := t.st
	rp := &replay{t: t, lp: lp,
		traced: make(map[string][]float64), plain: make(map[string][]float64),
		selfNs: make(map[string]int64), totalNs: make(map[string]int64), spanCount: make(map[string]float64)}
	if st.local == nil {
		// The coordinator keeps no clock for explorations, and the shards'
		// engines, which do, run in parallel.
		rp.clocks = []*obs.Histogram{obs.Default.Histogram("spate_explore_seconds", "", nil),
			obs.Default.Histogram("spate_sql_query_seconds", "", nil)}
		if st.streamer != nil {
			rp.clocks = append(rp.clocks, obs.Default.Histogram("spate_stream_append_seconds", "", nil))
		}
	}
	start := time.Now()
	used := false
	for round := 0; !used && time.Since(start) < dur; round++ {
		for _, src := range lp.sources {
			j := src()
			if j == nil {
				used = true
				break
			}
			switch round % 6 {
			case 0, 2:
				rp.loopback(j, true, start)
			case 4:
				rp.loopback(j, false, start)
			default:
				rp.direct(j)
			}
		}
	}
	rp.finish()
}

// loopback sends one request over HTTP, with tracing on or off: an "http"
// span around the client call and inside it the spans of the serving and
// webui middleware and of the result cache. The untraced requests are the
// yardstick for the tracing overhead.
func (rp *replay) loopback(j *harness.Job, on bool, start time.Time) {
	t, st := rp.t, rp.t.st
	var o harness.Outcome
	e0 := rp.engineSeconds()
	st.rec.on.Store(on)
	clean := st.undisturbed(func() {
		id := st.rec.begin("http")
		o = rp.lp.clients[0].Do(j, start)
		st.rec.end(id)
	})
	st.rec.on.Store(false)
	spans := st.rec.settle()
	engine := rp.engineSeconds() - e0
	t.attempted++
	if o.Failed() {
		t.fail("%s %s: status %d err %v", j.Op.Class, j.Path, o.Status, o.Err)
		return
	}
	if !clean {
		rp.disturbed++
		return
	}
	rp.respKB += float64(o.Size) / 1024
	if !on {
		rp.plain[j.Op.Class] = append(rp.plain[j.Op.Class], o.Ms)
		return
	}
	rp.traced[j.Op.Class] = append(rp.traced[j.Op.Class], o.Ms)
	rp.engineMs += engine * 1000
	for name, d := range harness.SelfByName(spans) {
		rp.selfNs[name] += d
	}
	for _, s := range spans {
		rp.totalNs[s.Name] += s.End - s.Start
		rp.spanCount[s.Name]++
	}
}

// direct makes one operation a direct call, the decorators recording:
// ExploreContext or the coordinator's Explore for explorations, the SQL
// engine over the decorated catalog and framework for SQL, Streamer.Append
// for the feed.
func (rp *replay) direct(j *harness.Job) {
	t, st := rp.t, rp.t.st
	ctx := context.Background()
	var keep func() // books the call, if it turns out undisturbed
	a0 := heapAllocs()
	clean := st.undisturbed(func() {
		switch {
		case j.Body != nil:
			t0 := time.Now()
			err := appendDirect(ctx, st, j)
			d := ms(time.Since(t0))
			if t.check("append", err) {
				keep = func() {
					rp.appends = append(rp.appends, d)
					t.direct[harness.ClassAppend] = append(t.direct[harness.ClassAppend], d)
				}
			}
		case harness.IsSQL(j.Op.Class):
			keep = t.directSQL(j.Op, &rp.prof)
		case st.local != nil:
			t0 := time.Now()
			res, err := st.local.Coordinator.Explore(ctx, coreQuery(j.Op))
			d := ms(time.Since(t0))
			if !t.check(j.Op.Class, err) {
				return
			}
			rp.explores = append(rp.explores, d)
			t.direct[j.Op.Class] = append(t.direct[j.Op.Class], d)
			rp.prof.Add(res.Profile)
			rp.fanout += float64(res.ShardsQueried)
			var slowest float64
			for _, sp := range res.Profile.Shards {
				if sp.Missing {
					continue
				}
				rp.shardLat = append(rp.shardLat, sp.LatencyMS)
				if sp.LatencyMS > slowest {
					slowest = sp.LatencyMS
				}
				if len(rp.explores)%4 == 1 {
					rp.rpcOver = append(rp.rpcOver, sp.LatencyMS-t.shardDirect(sp, j.Op))
				}
			}
			rp.shardMax = append(rp.shardMax, slowest)
			rp.mergeMs = append(rp.mergeMs, d-slowest)
			keep = func() {}
		default:
			t0 := time.Now()
			res, err := st.eng.ExploreContext(ctx, coreQuery(j.Op))
			d := time.Since(t0)
			if !t.check(j.Op.Class, err) {
				return
			}
			keep = func() { rp.explored(j.Op.Class, res, d) }
		}
	})
	alloc := heapAllocs() - a0
	switch {
	case keep == nil: // failed, and booked as that
	case !clean:
		rp.disturbed++
		st.rec.take() // a SQL call's spans go with it
	default:
		keep()
		rp.directOps++
		rp.allocBytes += alloc
	}
}

// explored books one direct single-engine exploration.
func (rp *replay) explored(class string, res *core.Result, d time.Duration) {
	t := rp.t
	rp.explores = append(rp.explores, ms(d))
	t.direct[class] = append(t.direct[class], ms(d))
	if res.CacheHit {
		// A hit carries the profile and stages of the evaluation that
		// filled the cache, not of this call.
		return
	}
	rp.prof.Add(res.Profile)
	var stages time.Duration
	for _, sg := range res.Stages {
		stages += sg.Duration
		if sg.Name == core.StageCollect && sg.Duration < 0 {
			// ROADMAP: "stages_ms.collect = -340".
			t.rep.Extra["collect_stage_negative"]++
			if v := ms(sg.Duration); v < t.rep.Extra["collect_stage_min_ms"] {
				t.rep.Extra["collect_stage_min_ms"] = v
			}
		}
	}
	rp.stageGap = append(rp.stageGap, ms(d-stages))
}

// finish turns the pass into per-layer metrics and checks that the layer
// table adds up.
func (rp *replay) finish() {
	t, st := rp.t, rp.t.st
	var nTraced, nPlain float64
	for _, xs := range rp.traced {
		nTraced += float64(len(xs))
	}
	for _, xs := range rp.plain {
		nPlain += float64(len(xs))
	}
	t.rep.Extra["traced_ops"] = nTraced
	t.rep.Extra["untraced_ops"] = nPlain
	t.rep.Extra["direct_ops"] = rp.directOps
	t.rep.Extra["seal_disturbed_ops"] = rp.disturbed
	if nTraced == 0 || rp.directOps == 0 {
		t.fail("the replay pass completed %v traced and %v direct operations clear of seals", nTraced, rp.directOps)
		return
	}

	// The direct calls.
	t.m["core.explore_ms"] = mean(rp.explores)
	t.m["core.stages_unattributed_ms"] = mean(rp.stageGap)
	t.m["core.stream_append_ms"] = mean(rp.appends)
	reads := rp.directOps - float64(len(rp.appends))
	prof := rp.prof
	t.m["core.leaves_scanned_per_op"] = harness.Div(float64(prof.LeavesScanned), reads)
	t.m["core.chunks_scanned_per_op"] = harness.Div(float64(prof.ChunksScanned), reads)
	pruned := float64(prof.ChunksPrunedZone + prof.ChunksPrunedBloom + prof.ChunksPrunedPred)
	t.m["core.chunks_pruned_ratio"] = harness.Ratio(pruned, float64(prof.ChunksScanned))
	t.m["segment.inflated_kb_per_op"] = harness.Div(float64(prof.InflatedBytes)/1024, reads)
	t.m["dfs.reads_per_op"] = harness.Div(float64(prof.DFSReads), reads)
	t.m["runtime.alloc_kb_per_op"] = rp.allocBytes / 1024 / rp.directOps
	if st.local != nil {
		t.m["cluster.coord_explore_ms"] = mean(rp.explores)
		t.m["cluster.shard_p50_ms"] = harness.Median(rp.shardLat)
		t.m["cluster.shard_max_ms"] = mean(rp.shardMax)
		t.m["cluster.merge_ms"] = mean(rp.mergeMs)
		t.m["cluster.rpc_overhead_ms"] = mean(rp.rpcOver)
		t.m["cluster.fanout_per_op"] = harness.Div(rp.fanout, float64(len(rp.explores)))
	}

	// The traced requests, per request.
	var httpMs float64
	for _, xs := range rp.traced {
		for _, x := range xs {
			httpMs += x
		}
	}
	httpMs /= nTraced
	transport := float64(rp.selfNs["http"]) / nTraced / 1e6
	admission := float64(rp.selfNs["serving"]) / nTraced / 1e6
	webuiSpan := float64(rp.totalNs["webui"]) / nTraced / 1e6
	// What the direct calls say the same classes cost below the handler,
	// in the traced requests' proportions.
	var engineDirect, weight float64
	for class, xs := range rp.traced {
		if ys := t.direct[class]; len(ys) > 0 {
			engineDirect += float64(len(xs)) * mean(ys)
			weight += float64(len(xs))
		}
	}
	engineDirect = harness.Div(engineDirect, weight)
	// The handler's self time is its span less what the program's own
	// clocks reported below it for the very same requests. The coordinator
	// has no such clock: there the direct calls stand in, and the layer
	// table adds up by construction.
	engine := rp.engineMs / nTraced
	if st.local != nil {
		engine = engineDirect
	}
	t.m["webui.transport_ms"] = transport
	t.m["serving.admission_self_us"] = admission * 1000
	t.m["serving.lru_get_us"] = harness.Div(float64(rp.totalNs["cache.get"])/1e3, rp.spanCount["cache.get"])
	t.m["webui.self_ms"] = webuiSpan - engine
	t.m["webui.resp_kb_per_op"] = rp.respKB / (nTraced + nPlain)
	// Class by class, because the classes differ by more than any overhead;
	// the classes' ratios are averaged in proportion to their requests.
	var ratio float64
	weight = 0
	for class, xs := range rp.traced {
		if ys := rp.plain[class]; len(ys) > 0 {
			ratio += float64(len(xs)) * harness.Div(harness.Median(xs), harness.Median(ys))
			weight += float64(len(xs))
		}
	}
	t.m["trace.overhead_ratio"] = harness.Div(ratio, weight)
	t.rep.Extra["http_span_ms"] = httpMs
	t.rep.Extra["webui_span_ms"] = webuiSpan
	t.rep.Extra["engine_reported_ms"] = engine
	t.rep.Extra["engine_direct_ms"] = engineDirect

	// The loopback span against the sum of its layers' self times, the
	// engine's taken from the direct calls. The spans nest, so what is left
	// over is the disagreement between the direct calls and the program's
	// own clocks under HTTP: beyond a fifth of the span the layer table
	// does not describe the request, and the run fails.
	t.m["trace.unattributed_ms"] = httpMs - (transport + admission + t.m["webui.self_ms"] + engineDirect)
	t.attempted++
	if limit := 0.2 * httpMs; abs(t.m["trace.unattributed_ms"]) > limit {
		t.fail("trace.unattributed_ms %.3f exceeds 20%% of the loopback span (%.3f ms): the layers' self times do not add up to the request",
			t.m["trace.unattributed_ms"], httpMs)
	}
}

// directSQL runs one statement through the SQL engine over the decorated
// catalog and framework, with the recorder on and a profile in the context.
// It returns the function that books the call (nil if the statement failed,
// which is booked at once): the replay pass drops calls a seal disturbed.
func (t *trun) directSQL(op harness.Op, prof *core.Profile) func() {
	st := t.st
	was := st.rec.on.Swap(true)
	defer st.rec.on.Store(was)
	pctx, p := core.ContextWithProfile(context.Background())
	id := st.rec.begin("sql")
	t0 := time.Now()
	rs, err := st.sql.QueryContext(pctx, op.SQL())
	d := time.Since(t0)
	st.rec.end(id)
	if !t.check(op.Class, err) {
		return nil
	}
	return func() {
		t.direct[op.Class] = append(t.direct[op.Class], ms(d))
		t.rowsReturned += float64(len(rs.Rows))
		t.sqlOps++
		if prof != nil {
			prof.Add(*p)
		}
		t.sqlSpans()
	}
}

// sqlSpans folds the spans of the direct SQL call just made into the SQL
// engine's self time and the time below the framework seam.
func (t *trun) sqlSpans() {
	spans := t.st.rec.take()
	t.sqlSelfNs += harness.SelfByName(spans)["sql"]
	for _, s := range spans {
		if s.Name == "core.scan" {
			t.scanNs += s.End - s.Start
		}
	}
	t.m["core.scan_ms"] = harness.Div(float64(t.scanNs)/1e6, t.sqlOps)
	t.m["sqlengine.self_ms"] = harness.Div(float64(t.sqlSelfNs)/1e6, t.sqlOps)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// appendDirect hands a feed batch to the streamer, bypassing HTTP.
func appendDirect(ctx context.Context, st *stack, j *harness.Job) error {
	schema := telco.SchemaByName(j.Table)
	recs := make([]telco.Record, 0, len(j.Lines))
	for _, line := range j.Lines {
		r, err := telco.DecodeLine(schema, line)
		if err != nil {
			return err
		}
		recs = append(recs, r)
	}
	return st.streamer.Append(ctx, j.Table, recs)
}

// shardDirect times the work a shard did for op without the RPC around it:
// ExploreParts on the node's engine over the ranges the shard owns.
func (t *trun) shardDirect(sp core.ShardProfile, op harness.Op) float64 {
	m := t.st.local.Coordinator.Map()
	eng := t.st.local.Node(m.Slot(sp.Shard, sp.Band), 0).Engine()
	t0 := time.Now()
	for _, r := range m.OwnedRanges(sp.Shard, telco.NewTimeRange(op.From, op.To)) {
		if _, _, err := eng.ExploreParts(context.Background(), r); err != nil {
			t.fail("shard %d ExploreParts: %v", sp.Shard, err)
		}
	}
	return ms(time.Since(t0))
}
