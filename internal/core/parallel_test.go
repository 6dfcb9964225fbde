package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spate/internal/cache"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// normalizeParallel strips the fields that legitimately differ between
// evaluations of the same query at different scan widths: wall-clock
// timings, trace ids, and the parallelism shape itself. Everything else —
// rows, aggregates, highlights, and every scan/prune/cache counter — must
// be bit-for-bit identical.
func normalizeParallel(res *Result) {
	res.Stages = nil
	res.leafDecode = 0
	res.Profile.TraceID = ""
	res.Profile.ReadNS = 0
	res.Profile.DecodeNS = 0
	res.Profile.LookupNS = 0
	res.Profile.ScanWorkers = 0
	res.Profile.ParallelUnits = 0
	res.Profile.Workers = nil
}

// TestParallelExploreParity is the scan pipeline's core property test: the
// same store queried with 1, 4 and 8 scan workers must produce identical
// results — same rows in the same order, the same sequence of scan
// callbacks, same aggregates, and the same deterministic cost counters.
// The engines are opened fresh over one shared DFS (the recovery path), so
// sealed days force parallel summary rebuilds too.
func TestParallelExploreParity(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, telco.EpochsPerDay+4) // one sealed day + an open tail
	r.e.FinishIngest()

	open := func(workers int) *Engine {
		e, err := Open(r.fs, r.g.CellTable(), Options{ScanWorkers: workers, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	wFull := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(30*time.Hour))
	wSub := telco.NewTimeRange(r.cfg.Start.Add(2*time.Hour), r.cfg.Start.Add(9*time.Hour))
	queries := []Query{
		{Window: wFull, ExactRows: true},
		{Window: wSub, Box: geo.NewRect(0, 0, 40, 38), ExactRows: true, Tables: []string{"CDR"}},
		{Window: wSub, Box: geo.NewRect(70, 70, 79, 74), ExactRows: true},
		{Window: wSub},
	}

	type scanCall struct {
		name string
		rows []telco.Record
	}
	type observation struct {
		explores []*Result
		parts    []scanspec.Partial
	}
	spec := &scanspec.Spec{
		Preds:     []scanspec.Pred{{Col: "duration", Op: ">=", Kind: "int", Val: "60"}},
		Aggs:      []scanspec.Agg{{Fn: "COUNT"}, {Fn: "SUM", Col: "duration"}},
		RequireTS: true,
	}
	// Row streams: the full (table name, rows) call sequence is the parity
	// contract — leaf by leaf, table names sorted within a leaf.
	scanCalls := func(e *Engine) []scanCall {
		var calls []scanCall
		err := e.ScanTablesSpec(context.Background(), wSub, geo.Rect{}, nil, nil,
			func(name string, tab *telco.Table) error {
				calls = append(calls, scanCall{name, tab.Rows})
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	observe := func(e *Engine) observation {
		var o observation
		for _, q := range queries {
			res, err := e.Explore(q)
			if err != nil {
				t.Fatal(err)
			}
			normalizeParallel(res)
			o.explores = append(o.explores, res)
		}
		parts, err := e.AggregatePartials(context.Background(), wFull, "CDR", spec)
		if err != nil {
			t.Fatal(err)
		}
		o.parts = parts
		return o
	}

	one := open(1)
	seq := observe(one)
	if calls := scanCalls(one); calls[0].name == calls[1].name {
		t.Fatalf("first scan calls are both %q: a leaf's tables must interleave for the order to mean anything", calls[0].name)
	}
	for _, workers := range []int{4, 8} {
		wide := open(workers)
		par := observe(wide)
		for i := range queries {
			if !reflect.DeepEqual(seq.explores[i], par.explores[i]) {
				t.Errorf("workers=%d query %d diverged from one worker:\none:  %+v\nwide: %+v",
					workers, i, seq.explores[i], par.explores[i])
			}
		}
		if !reflect.DeepEqual(seq.parts, par.parts) {
			t.Errorf("workers=%d aggregate partials diverged:\none:  %+v\nwide: %+v",
				workers, seq.parts, par.parts)
		}
		// Repeated: an order that depends on map iteration or on scheduling
		// agrees by luck some of the time.
		for round := 0; round < 20; round++ {
			if !reflect.DeepEqual(scanCalls(one), scanCalls(wide)) {
				t.Fatalf("round %d workers=%d ScanTablesSpec call sequence diverged", round, workers)
			}
		}
	}
}

// TestParallelProfileShape checks the new profile fields: a parallel
// exact-row query reports its fan-out, its dispatched units, and
// per-worker stats that sum to the unit count.
func TestParallelProfileShape(t *testing.T) {
	r := newRig(t, Options{ScanWorkers: 4})
	r.ingestEpochs(t, 6)
	r.e.FinishIngest()
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(3*time.Hour))
	res, err := r.e.Explore(Query{Window: w, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.ScanWorkers != 4 {
		t.Errorf("ScanWorkers = %d, want 4", res.Profile.ScanWorkers)
	}
	if res.Profile.ParallelUnits == 0 {
		t.Error("ParallelUnits = 0 on a parallel exact-row query")
	}
	units := 0
	for i, wp := range res.Profile.Workers {
		units += wp.Units
		if i > 0 && wp.Worker <= res.Profile.Workers[i-1].Worker {
			t.Errorf("Workers not sorted by id: %+v", res.Profile.Workers)
		}
	}
	if units != res.Profile.ParallelUnits {
		t.Errorf("per-worker units sum to %d, want %d", units, res.Profile.ParallelUnits)
	}
}

// TestParallelScanCancellation cancels the context from inside the emit
// callback of a scan, at a pool of one and of four; the scan must stop
// starting units and surface context.Canceled instead of completing.
func TestParallelScanCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := newRig(t, Options{ScanWorkers: workers})
		// Enough leaves that units remain unclaimed past the scheduler's
		// bounded lookahead when the first table is emitted.
		r.ingestEpochs(t, 24)
		r.e.FinishIngest()
		w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(12*time.Hour))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		emits := 0
		err := r.e.ScanTablesSpec(ctx, w, geo.Rect{}, nil, nil, func(string, *telco.Table) error {
			emits++
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: ScanTablesSpec after mid-scan cancel = %v, want context.Canceled", workers, err)
		}
		if emits == 0 {
			t.Fatalf("workers=%d: callback never ran", workers)
		}
	}
}

// TestRunUnitsOrderAndErrors drives the scheduler directly, as a pool of
// one and of four: emits must arrive in unit order whatever order workers
// finish in, the lowest-index failure wins deterministically, a cancel
// from emit surfaces context.Canceled, and an emit error stops further
// units. A pool of one — width 1, or one unit at any width — runs on the
// calling goroutine and starts none.
func TestRunUnitsOrderAndErrors(t *testing.T) {
	r := newRig(t, Options{})
	const n = 64
	discard := func(int, any) error { return nil }
	for _, workers := range []int{1, 4} {
		var got []int
		err := r.e.runUnits(context.Background(), workers, n, nil, func(_ *scanWorker, i int) (any, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // scramble completion order
			}
			return i, nil
		}, func(i int, v any) error {
			got = append(got, v.(int))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: emit order broken at %d: got %v", workers, i, got[:i+1])
			}
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d units, want %d", workers, len(got), n)
		}

		errLow := errors.New("low")
		errHigh := errors.New("high")
		err = r.e.runUnits(context.Background(), workers, n, nil, func(_ *scanWorker, i int) (any, error) {
			switch i {
			case 3:
				time.Sleep(5 * time.Millisecond)
				return nil, errLow
			case 10:
				return nil, errHigh
			default:
				return i, nil
			}
		}, discard)
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: error = %v, want lowest-index error %v", workers, err, errLow)
		}

		ctx, cancel := context.WithCancel(context.Background())
		err = r.e.runUnits(ctx, workers, n, nil, func(_ *scanWorker, i int) (any, error) { return i, nil },
			func(int, any) error { cancel(); return nil })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancel from emit = %v, want context.Canceled", workers, err)
		}

		// An emit error is returned and no unit far enough behind it to lie
		// beyond the bounded lookahead ever starts.
		errEmit := errors.New("emit")
		var started atomic.Int32
		err = r.e.runUnits(context.Background(), workers, n, nil, func(_ *scanWorker, i int) (any, error) {
			started.Add(1)
			return i, nil
		}, func(i int, _ any) error {
			if i == 2 {
				return errEmit
			}
			return nil
		})
		if !errors.Is(err, errEmit) {
			t.Fatalf("workers=%d: error = %v, want the emit error", workers, err)
		}
		if got, limit := int(started.Load()), 3+4*workers+workers; got > limit || (workers == 1 && got != 3) {
			t.Fatalf("workers=%d: %d units started after an emit error at unit 2 (limit %d)", workers, got, limit)
		}
	}

	// A pool of one is the caller's goroutine: the unit sees the goroutine
	// count the caller saw.
	for _, tc := range []struct{ workers, units int }{{1, n}, {4, 1}} {
		before := runtime.NumGoroutine()
		err := r.e.runUnits(context.Background(), tc.workers, tc.units, nil, func(*scanWorker, int) (any, error) {
			if now := runtime.NumGoroutine(); now != before {
				t.Errorf("workers=%d units=%d: %d goroutines inside a unit, %d before the call", tc.workers, tc.units, now, before)
			}
			return nil, nil
		}, discard)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// waitPending waits until n callers are inside f.Do for key.
func waitPending[V any](t *testing.T, f *cache.Flight[V], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Pending(key) != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers pending on %q, want %d", f.Pending(key), key, n)
		}
		runtime.Gosched()
	}
}

// TestFlightGroupDedupes pins the singleflight contract of cache.Flight,
// which dedupes both chunk inflations and whole explorations: callers
// arriving while a load is in flight share its value without loading; a
// failed load is handed to nobody, its waiters retry and one of them leads
// the next load; a waiter whose context ends leaves with ctx.Err() while
// the load goes on; and the key is free once the load returns (the cache,
// not the flight, is the store).
func TestFlightGroupDedupes(t *testing.T) {
	type outcome struct {
		v      string
		shared bool
		err    error
	}
	var f cache.Flight[string]
	ctx := context.Background()
	var loads atomic.Int32
	gated := func(gate chan struct{}, v string, err error) func() (string, error) {
		return func() (string, error) {
			loads.Add(1)
			<-gate
			return v, err
		}
	}
	boom := errors.New("boom")
	failGate, okGate := make(chan struct{}), make(chan struct{})

	// A failing leader with waiters, one of which gives up.
	leader := make(chan outcome, 1)
	go func() {
		v, s, err := f.Do(ctx, "k", gated(failGate, "", boom))
		leader <- outcome{v, s, err}
	}()
	waitPending(t, &f, "k", 1)
	const waiters = 6
	waited := make(chan outcome, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			// The retry after the failure leads one load, whose value every
			// other waiter then shares.
			v, s, err := f.Do(ctx, "k", gated(okGate, "chunk", nil))
			waited <- outcome{v, s, err}
		}()
	}
	cctx, cancel := context.WithCancel(ctx)
	quit := make(chan outcome, 1)
	go func() {
		v, s, err := f.Do(cctx, "k", func() (string, error) {
			t.Error("a waiter that gave up ran a load")
			return "", nil
		})
		quit <- outcome{v, s, err}
	}()
	waitPending(t, &f, "k", waiters+2)
	cancel()
	if q := <-quit; !errors.Is(q.err, context.Canceled) || q.shared {
		t.Fatalf("cancelled waiter = %+v, want context.Canceled", q)
	}
	waitPending(t, &f, "k", waiters+1)
	close(failGate)
	if l := <-leader; !errors.Is(l.err, boom) || l.shared {
		t.Fatalf("leader = %+v, want its own error", l)
	}
	// Every waiter is back: one leads the retry, the rest wait on it.
	waitPending(t, &f, "k", waiters)
	close(okGate)
	var sharers int
	for i := 0; i < waiters; i++ {
		w := <-waited
		if w.v != "chunk" || w.err != nil {
			t.Fatalf("waiter = %+v: a failed load reached a waiter", w)
		}
		if w.shared {
			sharers++
		}
	}
	if n := loads.Load(); n != 2 || sharers != waiters-1 {
		t.Fatalf("%d loads and %d sharers, want the failed load, one retry and %d sharers", n, sharers, waiters-1)
	}

	// The key is free again: a fresh caller loads afresh.
	if v, s, err := f.Do(ctx, "k", func() (string, error) { return "again", nil }); v != "again" || s || err != nil {
		t.Fatalf("post-flight call = (%q, %v, %v)", v, s, err)
	}
	if n := f.Pending("k"); n != 0 {
		t.Fatalf("%d callers still pending", n)
	}
}

// TestResultFlightLeaderFailure pins the engine's side of a failed result
// leader: an Explore that joins a leader which then fails (here: its
// context canceled) gets no answer from it, retries, evaluates the query
// itself and caches the answer — one abandoned request never fails an
// identical one.
func TestResultFlightLeaderFailure(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, Options{Obs: reg})
	r.ingestEpochs(t, 2)
	q := Query{
		Window:    telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(time.Hour)),
		ExactRows: true,
	}
	key := q.CacheKey()

	gate := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := r.e.resFlight.Do(context.Background(), key, func() (*Result, error) {
			<-gate
			return nil, context.Canceled
		})
		leader <- err
	}()
	waitPending(t, &r.e.resFlight, key, 1)
	type outcome struct {
		res *Result
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		res, err := r.e.ExploreContext(context.Background(), q)
		waiter <- outcome{res, err}
	}()
	waitPending(t, &r.e.resFlight, key, 2)
	close(gate) // the leader fails
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	w := <-waiter
	if w.err != nil || w.res == nil {
		t.Fatalf("waiter = (%+v, %v) after a failed leader, want its own answer", w.res, w.err)
	}
	if w.res.CacheHit || w.res.Summary.Rows == 0 {
		t.Fatalf("waiter answer: cache hit %v, %d rows; want a fresh evaluation with rows", w.res.CacheHit, w.res.Summary.Rows)
	}
	if n := reg.Counter("spate_result_singleflight_shared_total", "").Value(); n != 0 {
		t.Fatalf("%d answers shared from a failed leader", n)
	}
	if n := r.e.resFlight.Pending(key); n != 0 {
		t.Fatalf("%d callers still pending on the key", n)
	}
	// The retry's answer is cached: the next identical query is a hit.
	again, err := r.e.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Summary.Rows != w.res.Summary.Rows {
		t.Fatalf("follow-up: cache hit %v, %d rows; want a hit with %d rows", again.CacheHit, again.Summary.Rows, w.res.Summary.Rows)
	}
}

// TestExploreResultSingleflight exercises the wired-up result flight: a
// herd of identical queries arriving while the first one is still
// scanning costs exactly one evaluation, and the sharers are counted in
// spate_result_singleflight_shared_total.
func TestExploreResultSingleflight(t *testing.T) {
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas = 30
	cfg.Users = 300
	cfg.CDRPerEpoch = 120
	cfg.NMSReportsPerCell = 0.8
	g := gen.New(cfg)
	// Throttled reads keep the leader's scan in flight long enough for the
	// herd to pile onto it.
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{
		BlockSize: 1 << 20, DataNodes: 3, Replication: 2, ReadMBps: 1,
		Obs: obs.NewNoop(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := Open(fs, g.CellTable(), Options{ScanWorkers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < 3; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(g.CDRTable(s.Epoch))
		if _, err := e.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
	e.FinishIngest()

	q := Query{
		Window:    telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour)),
		ExactRows: true,
	}
	misses := reg.Counter("spate_explore_cache_misses_total", "")
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Explore(q)
		leaderErr <- err
	}()
	// Wait for the leader to hold the result flight, then unleash the herd
	// while it is still reading at 1 MB/s.
	waitPending(t, &e.resFlight, q.CacheKey(), 1)
	const herd = 4
	var wg sync.WaitGroup
	var rows atomic.Int64
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Explore(q)
			if err != nil {
				t.Error(err)
				return
			}
			rows.Add(int64(res.Summary.Rows))
		}()
	}
	wg.Wait()
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if v := misses.Value(); v != 1 {
		t.Errorf("cache misses = %d, want 1 (herd caused extra scans)", v)
	}
	sharedN := reg.Counter("spate_result_singleflight_shared_total", "").Value()
	hits := reg.Counter("spate_explore_cache_hits_total", "").Value()
	if sharedN+hits != herd {
		t.Errorf("shared (%d) + cache hits (%d) != herd size %d", sharedN, hits, herd)
	}
	if sharedN == 0 {
		t.Error("no query shared the in-flight result")
	}
	if rows.Load() == 0 {
		t.Error("herd answers were empty")
	}
}

// TestScanWorkersDefault pins the fan-out defaulting: 0 resolves to
// GOMAXPROCS (at least 1) and explicit values pass through.
func TestScanWorkersDefault(t *testing.T) {
	r := newRig(t, Options{})
	if got := r.e.scanWorkers(); got < 1 {
		t.Errorf("default scan workers = %d, want >= 1", got)
	}
	r2 := newRig(t, Options{ScanWorkers: 7})
	if got := r2.e.scanWorkers(); got != 7 {
		t.Errorf("scan workers = %d, want 7", got)
	}
}
