package main

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spate/benchmarks/harness"
	"spate/internal/core"
	"spate/internal/scanspec"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/tasks"
	"spate/internal/telco"
)

// recorder keeps the spans of the traced passes in memory. The traced passes
// run one request at a time, and every decorated seam is entered on the
// goroutine that serves the request or makes the direct call, so the open
// spans form a stack and a new span's parent is the top of it. While off,
// begin and end cost one atomic load: the untraced requests of the same pass
// go through the same decorators.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []harness.Span
	open  []int
	t0    time.Time
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, or -1 while tracing is off.
func (r *recorder) begin(name string) int {
	if !r.on.Load() {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, harness.Span{Name: name, Parent: parent, Start: now})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// settle waits until every open span has ended — a handler returns, and
// ends its span, a moment after the client has read its reply — and takes
// the spans.
func (r *recorder) settle() []harness.Span {
	for {
		r.mu.Lock()
		n := len(r.open)
		r.mu.Unlock()
		if n == 0 {
			return r.take()
		}
		runtime.Gosched()
	}
}

// take returns the spans recorded so far and starts over.
func (r *recorder) take() []harness.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans, r.open = nil, nil
	return out
}

// spanHandler is the HTTP middleware seam: one span around next.
func spanHandler(r *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.begin(name)
		next.ServeHTTP(w, req)
		r.end(id)
	})
}

// timedCache decorates the engine's result cache (core.ResultCache).
type timedCache struct {
	rec   *recorder
	inner core.ResultCache
}

func (c timedCache) Get(key string) (*core.Result, bool) {
	id := c.rec.begin("cache.get")
	res, ok := c.inner.Get(key)
	c.rec.end(id)
	return res, ok
}

func (c timedCache) Put(key string, res *core.Result) {
	id := c.rec.begin("cache.put")
	c.inner.Put(key, res)
	c.rec.end(id)
}

func (c timedCache) Invalidate(ranges []telco.TimeRange) { c.inner.Invalidate(ranges) }
func (c timedCache) Clear()                              { c.inner.Clear() }

// timedFramework decorates tasks.Framework and its pushdown capabilities,
// which both the engine's and the coordinator's frameworks have: the seam
// between the SQL engine (through tasks.Catalog) and the storage engine's
// scan loops. It also counts the rows storage hands up.
type timedFramework struct {
	rec   *recorder
	inner tasks.Framework
	rows  *atomic.Int64
}

func (f timedFramework) Name() string { return f.inner.Name() }
func (f timedFramework) Ingest(s *snapshot.Snapshot) (tasks.IngestStats, error) {
	return f.inner.Ingest(s)
}
func (f timedFramework) Finish()               { f.inner.Finish() }
func (f timedFramework) Space() (int64, int64) { return f.inner.Space() }

func (f timedFramework) count(fn func(string, *telco.Table) error) func(string, *telco.Table) error {
	return func(name string, tab *telco.Table) error {
		f.rows.Add(int64(tab.Len()))
		return fn(name, tab)
	}
}

func (f timedFramework) Scan(ctx context.Context, w telco.TimeRange, tables []string, fn func(string, *telco.Table) error) error {
	id := f.rec.begin("core.scan")
	err := f.inner.Scan(ctx, w, tables, f.count(fn))
	f.rec.end(id)
	return err
}

func (f timedFramework) ScanSpec(ctx context.Context, w telco.TimeRange, tables []string, spec *scanspec.Spec, fn func(string, *telco.Table) error) error {
	id := f.rec.begin("core.scan")
	err := f.inner.(tasks.SpecScanner).ScanSpec(ctx, w, tables, spec, f.count(fn))
	f.rec.end(id)
	return err
}

func (f timedFramework) AggregatePartials(ctx context.Context, w telco.TimeRange, table string, spec *scanspec.Spec) ([]scanspec.Partial, error) {
	id := f.rec.begin("core.scan")
	parts, err := f.inner.(tasks.PartialAggregator).AggregatePartials(ctx, w, table, spec)
	f.rec.end(id)
	// A pushed-down aggregate hands up groups, not rows.
	f.rows.Add(int64(len(parts)))
	return parts, err
}

// timedCatalog decorates sqlengine.Catalog: table resolution.
type timedCatalog struct {
	rec   *recorder
	inner sqlengine.Catalog
}

func (c timedCatalog) Table(name string) (sqlengine.Provider, error) {
	id := c.rec.begin("sql.catalog")
	p, err := c.inner.Table(name)
	c.rec.end(id)
	return p, err
}
