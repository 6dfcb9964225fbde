// Package webui implements the SPATE-UI application layer as an HTTP
// service (paper §VI-B): a JSON exploration API over the engine's
// Q(a, b, w) interface plus a built-in heatmap page. The paper's interface
// sits on Google Maps; ours renders the cell grid on a canvas — the
// exploration semantics underneath (spatial box, temporal window, template
// queries, highlights playback) are the same.
package webui

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"spate/internal/cluster"
	"spate/internal/core"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/obs"
	"spate/internal/serving"
	"spate/internal/sqlengine"
	"spate/internal/tasks"
	"spate/internal/telco"
)

// Server is the SPATE-UI over one backend: a single engine (NewServer) or
// a cluster coordinator (NewClusterServer). The routes, the handlers and
// the JSON are the same either way; whatever differs below Q(a, b, w) —
// where appends go, who runs maintenance, whether an answer can be partial
// — is the backend's.
type Server struct {
	b      backend
	sql    *sqlengine.Engine
	cells  []gen.Cell
	heads  cellHeads
	window telco.TimeRange
	mux    *http.ServeMux

	obs      *obs.Registry
	tracer   *obs.Tracer
	inflight *obs.Gauge
	handler  http.Handler
}

// NewServer serves an ingested engine. cells may be nil (the /api/cells
// endpoint then serves an empty inventory); window is the trace's span,
// used as the default exploration window. The server reports per-endpoint
// request metrics into obs.Default and serves the registry at /metrics
// (Prometheus text), /api/stats (JSON) and /api/trace (recent spans).
// Besides the shared routes it mounts the two that read one engine's own
// store: /api/space and /api/tree.
func NewServer(eng *core.Engine, cells []gen.Cell, window telco.TimeRange) *Server {
	b := &engineBackend{eng: eng}
	s := newServer(b, cells, window)
	s.mux.HandleFunc("GET /api/space", b.handleSpace)
	s.mux.HandleFunc("GET /api/tree", b.handleTree)
	return s
}

// NewClusterServer serves a coordinator whose nodes are already serving,
// with the same arguments as NewServer. Answers add the partial-result
// contract — a degraded exploration is HTTP 200 carrying partial:true plus
// the missing time-ranges, so clients can render what arrived and show
// what didn't — and /api/health probes the nodes.
func NewClusterServer(coord *cluster.Coordinator, cells []gen.Cell, window telco.TimeRange) *Server {
	b := coordBackend{coord}
	s := newServer(b, cells, window)
	s.mux.HandleFunc("GET /api/health", b.handleHealth)
	return s
}

func newServer(b backend, cells []gen.Cell, window telco.TimeRange) *Server {
	s := &Server{
		b:      b,
		sql:    sqlengine.NewEngine(tasks.Catalog(b.framework())),
		cells:  cells,
		window: window,
		mux:    http.NewServeMux(),
		obs:    obs.Default,
		tracer: obs.DefaultTracer,
	}
	s.inflight = s.obs.Gauge("spate_http_in_flight_requests", "HTTP requests currently being served.")
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /api/cells", s.handleCells)
	s.mux.HandleFunc("GET /api/explore", s.handleExplore)
	s.mux.HandleFunc("POST /api/append", s.handleAppend)
	s.mux.HandleFunc("GET /api/sql", s.handleSQL)
	s.mux.HandleFunc("GET /api/template", s.handleTemplate)
	s.mux.HandleFunc("GET /api/playback", s.handlePlayback)
	s.mux.HandleFunc("GET /api/lifecycle", s.handleLifecycle)
	s.mux.HandleFunc("POST /api/lifecycle", s.handleLifecycle)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(s.obs))
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.Handle("GET /api/trace", obs.TracesHandler(s.tracer))
	s.mux.Handle("GET /api/slowlog", obs.SlowLogHandler(obs.DefaultSlowLog))
	s.handler = s.middleware(s.mux)
	return s
}

// endpointLabel maps a request path to a bounded metric label, so hostile
// or junk paths cannot blow up series cardinality.
func endpointLabel(path string) string {
	switch path {
	case "/":
		return "index"
	case "/metrics", "/api/stats", "/api/trace", "/api/cells", "/api/explore",
		"/api/append", "/api/sql", "/api/space", "/api/template", "/api/playback",
		"/api/tree", "/api/health", "/api/lifecycle", "/api/slowlog":
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "pprof"
	}
	return "other"
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// middleware records per-endpoint request counts, latencies and the
// in-flight gauge, and roots a trace span so backend spans nest under the
// HTTP request in /api/trace. It also feeds the slow-query log (with the
// request's trace ID, so a slow entry links to its span tree) and exports
// a per-endpoint p99 latency gauge derived from the histogram.
func (s *Server) middleware(next http.Handler) http.Handler {
	var mu sync.Mutex
	p99Registered := make(map[string]bool)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		ep := endpointLabel(r.URL.Path)
		ctx, span := s.tracer.StartSpan(r.Context(), "http "+ep)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(ctx))
		span.End()
		dur := time.Since(t0)
		s.obs.Counter("spate_http_requests_total",
			"HTTP requests served by endpoint and status code.",
			"endpoint", ep, "code", strconv.Itoa(rec.code)).Inc()
		hist := s.obs.Histogram("spate_http_request_seconds",
			"HTTP request latency by endpoint.", nil,
			"endpoint", ep)
		hist.Observe(dur.Seconds())
		mu.Lock()
		if !p99Registered[ep] {
			p99Registered[ep] = true
			s.obs.GaugeFunc("spate_http_p99_seconds",
				"99th percentile HTTP request latency by endpoint.",
				func() float64 { return hist.Quantile(0.99) },
				"endpoint", ep)
		}
		mu.Unlock()
		obs.DefaultSlowLog.Observe("http "+ep, r.URL.RequestURI(), span.TraceID(), dur,
			map[string]any{"code": rec.code})
	})
}

// Handler returns the HTTP handler (also usable under httptest), with the
// metrics middleware applied.
func (s *Server) Handler() http.Handler { return s.handler }

// SetAdmission fronts the API with a serving-tier admission controller:
// tenant resolution, rate limits, concurrency caps and load shedding.
// The admission layer sits inside the metrics middleware, so shed
// 429/503s still show up in the per-endpoint request metrics; over a
// coordinator, the tenant it stamps into the request context propagates
// into the shard RPCs. Call before Handler is used; not safe to swap while
// serving.
func (s *Server) SetAdmission(ctl *serving.Controller) {
	s.handler = s.middleware(ctl.Middleware(s.mux))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("webui: encode", "err", err)
	}
}

// httpErr writes a JSON error body. The Content-Type header must be set
// before WriteHeader — headers written after the status line are dropped.
func httpErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if encErr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); encErr != nil {
		slog.Error("webui: encode", "err", encErr)
	}
}

// CellJSON is the wire form of one cell.
type CellJSON struct {
	ID   int64   `json:"id"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Tech string  `json:"tech,omitempty"`
}

func (s *Server) handleCells(w http.ResponseWriter, _ *http.Request) {
	out := make([]CellJSON, 0, len(s.cells))
	for _, c := range s.cells {
		out = append(out, CellJSON{ID: c.ID, X: c.Pt.X, Y: c.Pt.Y, Tech: c.Tech})
	}
	writeJSON(w, out)
}

// parseWindow reads from/to params as (possibly truncated) wire-layout
// timestamps; absent params default to the trace span.
func (s *Server) parseWindow(q url.Values) (telco.TimeRange, error) {
	from, to := s.window.From, s.window.To
	parse := func(v string) (time.Time, error) {
		if len(v) > len(telco.TimeLayout) || len(v) < 4 {
			return time.Time{}, fmt.Errorf("bad timestamp %q", v)
		}
		return time.ParseInLocation(telco.TimeLayout[:len(v)], v, time.UTC)
	}
	if v := q.Get("from"); v != "" {
		t, err := parse(v)
		if err != nil {
			return telco.TimeRange{}, err
		}
		from = t
	}
	if v := q.Get("to"); v != "" {
		t, err := parse(v)
		if err != nil {
			return telco.TimeRange{}, err
		}
		to = t
	}
	return telco.NewTimeRange(from, to), nil
}

// ExploreJSON is the wire form of an exploration answer, the same type
// over either backend. An engine fills the covering level, the cache hit
// and the stage breakdown; a coordinator fills the degradation contract
// (a partial answer is HTTP 200: the aggregates are correct for the window
// minus the missing ranges, and the client decides how to degrade) and its
// scatter's counters. The handler writes the answer by hand
// (appendExplore) in this type's encoding/json form, a non-finite number as
// null; the type documents the wire, and clients decode into it.
type ExploreJSON struct {
	Level      string            `json:"covering_level,omitempty"`
	Rows       int64             `json:"rows"`
	Decayed    int               `json:"decayed_leaves"`
	CacheHit   bool              `json:"cache_hit"`
	Cells      []ExploreCellJSON `json:"cells"`
	Highlights []HighlightJSON   `json:"highlights"`
	// Stages is the engine's per-stage timing breakdown in milliseconds
	// (plan, collect, leaf_decode, merge, restrict, row_fetch).
	Stages map[string]float64 `json:"stages_ms,omitempty"`

	Partial       bool         `json:"partial"`
	Missing       []WindowJSON `json:"missing,omitempty"`
	ShardsQueried int          `json:"shards_queried,omitempty"`
	ShardsFailed  int          `json:"shards_failed,omitempty"`
	HedgeWins     int          `json:"hedge_wins,omitempty"`
	Retries       int          `json:"retries,omitempty"`

	// TraceID links the answer to its span tree at /api/trace?id= (over a
	// coordinator, rooted there with the shard subtrees stitched in).
	TraceID string `json:"trace_id,omitempty"`
	// Profile is the per-query storage profile (with the per-shard split
	// of a scatter), included when the request carries profile=1.
	Profile *core.Profile `json:"profile,omitempty"`
}

// WindowJSON is one half-open time range on the wire.
type WindowJSON struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// ExploreCellJSON is one cell's aggregate in an exploration answer.
type ExploreCellJSON struct {
	ID    int64   `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Rows  int64   `json:"rows"`
	Value float64 `json:"value"`
}

// HighlightJSON is one highlight in an exploration answer.
type HighlightJSON struct {
	Attr  string  `json:"attr"`
	Kind  string  `json:"kind"`
	Value string  `json:"value,omitempty"`
	Freq  float64 `json:"freq,omitempty"`
	Peak  float64 `json:"peak,omitempty"`
}

// parseBoxQuery reads the minx/miny/maxx/maxy params; absent minx leaves
// the zero box ("everywhere"). A value is read as fmt's %g reads it (spaces
// around it skipped, anything after the number ignored); an absent one
// skips the scan, which is most of what a box-less request would cost here.
// A plain decimal — what every client sends — is the token %g would hand
// strconv.ParseFloat whole, so it goes there directly.
func parseBoxQuery(q url.Values) geo.Rect {
	get := func(k string) (float64, bool) {
		v := q.Get(k)
		if v == "" {
			return 0, false
		}
		if plainDecimal(v) {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f, true
			}
		}
		var f float64
		if _, err := fmt.Sscanf(v, "%g", &f); err == nil {
			return f, true
		}
		return 0, false
	}
	if x1, ok := get("minx"); ok {
		y1, _ := get("miny")
		x2, _ := get("maxx")
		y2, _ := get("maxy")
		return geo.NewRect(x1, y1, x2, y2)
	}
	return geo.Rect{}
}

// plainDecimal reports whether s is an optional sign, then digits with at
// most one decimal point among or around them, and at least one digit.
func plainDecimal(s string) bool {
	if s != "" && (s[0] == '-' || s[0] == '+') {
		s = s[1:]
	}
	digits, point := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			digits = true
		case c == '.' && !point:
			point = true
		default:
			return false
		}
	}
	return digits
}

// handleExplore parses the request's query string once and renders the
// answer with appendExplore.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	win, err := s.parseWindow(q)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	x, err := s.b.explore(r.Context(), core.Query{Window: win, Box: parseBoxQuery(q)})
	if err != nil {
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	attr, profile := q.Get("attr"), q.Get("profile") == "1"
	writeBody(w, func(b []byte) ([]byte, error) { return s.appendExplore(b, x, attr, profile) })
}

// handleSQL serves SPATE-SQL. A statement that does not parse or bind is
// the client's (400); one that fails under its scan — a storage read, a
// canceled request — is the server's (500), and a scatter that lost a
// shard is 503: SQL answers are complete or absent, never a silent subset.
func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	rs, err := s.sql.QueryContext(r.Context(), q)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, tasks.ErrScan) {
			code = statusOf(err)
		}
		httpErr(w, code, err)
		return
	}
	writeBody(w, func(b []byte) ([]byte, error) { return appendSQL(b, rs), nil })
}

// handleStats serves the obs registry's JSON mirror plus whatever families
// the backend derives on demand (an engine's column codec statistics).
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.b.stats(s.obs.Snapshot()))
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, indexHTML,
		s.window.From.Format(telco.TimeLayout), s.window.To.Format(telco.TimeLayout))
}
