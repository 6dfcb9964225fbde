package webui

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"spate/internal/cluster"
	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/highlights"
	"spate/internal/lifecycle"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/telco"
	"spate/internal/wal"
)

// parityStack is one backend behind the one Server, in streaming mode with
// a maintenance manager, holding the same two days of trace as the others.
type parityStack struct {
	name  string
	ts    *httptest.Server
	srv   *Server
	local *cluster.Local // nil for the engine
}

func (p *parityStack) clustered() bool { return p.local != nil }

// newParityStacks serves one generated trace three ways: from a single
// engine, through a 1-shard cluster and through a 4-shard cluster (two of
// whose day-shards stay empty). None is finalized, so all accept appends.
func newParityStacks(t *testing.T) ([]*parityStack, *gen.Generator, telco.TimeRange) {
	t.Helper()
	gc := gen.DefaultConfig(0.002)
	gc.Antennas = 12
	gc.Users = 60
	gc.CDRPerEpoch = 20
	gc.NMSReportsPerCell = 0.25
	g := gen.New(gc)
	e0 := telco.EpochOf(gc.Start)
	n := 2 * telco.EpochsPerDay
	window := telco.NewTimeRange(e0.Start(), (e0 + telco.Epoch(n)).Start())
	streamOpts := core.StreamerOptions{Sync: wal.SyncNone, GroupWindow: time.Millisecond}
	feed := func(ingest func(*snapshot.Snapshot) error) {
		t.Helper()
		for i := 0; i < n; i++ {
			sn := snapshot.New(e0 + telco.Epoch(i))
			sn.Add(g.CDRTable(sn.Epoch))
			sn.Add(g.NMSTable(sn.Epoch))
			if err := ingest(sn); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve := func(p *parityStack) *parityStack {
		p.ts = httptest.NewServer(p.srv.Handler())
		t.Cleanup(p.ts.Close)
		return p
	}

	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(func(sn *snapshot.Snapshot) error { _, err := eng.Ingest(sn); return err })
	so := streamOpts
	so.WALDir = t.TempDir()
	st, err := eng.OpenStreamer(so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	lm := lifecycle.New(eng, lifecycle.Config{Obs: obs.NewNoop()})
	t.Cleanup(lm.Close)
	srv := NewServer(eng, g.Cells(), window)
	srv.SetStreamer(st)
	srv.SetLifecycle(lm)
	stacks := []*parityStack{serve(&parityStack{name: "engine", srv: srv})}

	for _, shards := range []int{1, 4} {
		// The coordinators count into their own registries: other tests of
		// this package assert exact spate_cluster_* values in obs.Default.
		// No retries, so one injected fault degrades an answer.
		lc, err := cluster.StartLocal(
			cluster.Config{Shards: shards, Retries: -1, Obs: obs.NewRegistry()},
			g.CellTable(),
			cluster.LocalOptions{
				Dir:       t.TempDir(),
				Streaming: &streamOpts,
				Lifecycle: &lifecycle.Config{Obs: obs.NewNoop()},
			})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lc.Close() })
		feed(func(sn *snapshot.Snapshot) error { return lc.Coordinator.Ingest(context.Background(), sn) })
		stacks = append(stacks, serve(&parityStack{
			name:  fmt.Sprintf("cluster-%d", shards),
			srv:   NewClusterServer(lc.Coordinator, g.Cells(), window),
			local: lc,
		}))
	}
	return stacks, g, window
}

// fetch GETs (body == nil) or POSTs a path and returns status and body.
func (p *parityStack) fetch(t *testing.T, path string, body any) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(p.ts.URL + path)
	} else {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		resp, err = http.Post(p.ts.URL+path, "application/json", &buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// head is the start of a body, for failure messages.
func head(body []byte) string {
	if len(body) > 200 {
		return string(body[:200]) + "…"
	}
	return string(body)
}

// sqlRows answers a statement as its row strings, sorted: without an ORDER
// BY a scatter concatenates shard-major where one engine goes leaf by leaf.
func (p *parityStack) sqlRows(t *testing.T, q string) []string {
	t.Helper()
	code, body := p.fetch(t, "/api/sql?q="+url.QueryEscape(q), nil)
	if code != 200 {
		t.Fatalf("%s: sql %q: status %d: %s", p.name, q, code, head(body))
	}
	var out struct {
		Cols []string   `json:"cols"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	rows := []string{strings.Join(out.Cols, ",")}
	for _, r := range out.Rows {
		rows = append(rows, strings.Join(r, ","))
	}
	sort.Strings(rows[1:])
	return rows
}

// TestBackendParity drives every route the backends share against a single
// engine, a 1-shard and a 4-shard cluster holding the same trace: one
// Server, one handler set, so the answers must agree — rows, cells and
// highlights bit for bit — and what only one backend has must be absent
// from the other, not half there.
func TestBackendParity(t *testing.T) {
	stacks, g, window := newParityStacks(t)
	ts := func(x time.Time) string { return x.Format(telco.TimeLayout) }
	noon0, noon1 := window.From.Add(12*time.Hour), window.From.Add(36*time.Hour)
	// A box over the western half of the cell plane.
	cells := g.Cells()
	west := cells[0].Pt.X
	east, south, north := west, cells[0].Pt.Y, cells[0].Pt.Y
	for _, c := range cells {
		west, east = min(west, c.Pt.X), max(east, c.Pt.X)
		south, north = min(south, c.Pt.Y), max(north, c.Pt.Y)
	}
	box := fmt.Sprintf("&minx=%g&miny=%g&maxx=%g&maxy=%g", west, south, (west+east)/2, north+1)

	// sameJSON fetches path everywhere, requires 200, and compares what
	// pick extracts from the decoded body against the engine's.
	sameJSON := func(t *testing.T, path string, pick func(map[string]any) any) {
		t.Helper()
		var want any
		for i, p := range stacks {
			code, body := p.fetch(t, path, nil)
			if code != 200 {
				t.Fatalf("%s: GET %s: status %d: %s", p.name, path, code, head(body))
			}
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatalf("%s: GET %s: %v", p.name, path, err)
			}
			got := pick(m)
			if i == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("GET %s: %s and the engine answer differently:\n%s\n%s",
					path, p.name, head([]byte(fmt.Sprint(got))), head([]byte(fmt.Sprint(want))))
			}
		}
	}
	exploreAnswer := func(m map[string]any) any {
		if m["rows"].(float64) == 0 || m["partial"] != false {
			t.Errorf("degenerate exploration: rows=%v partial=%v", m["rows"], m["partial"])
		}
		return []any{m["rows"], m["decayed_leaves"], m["cells"], m["highlights"]}
	}

	t.Run("index", func(t *testing.T) {
		for _, p := range stacks {
			code, body := p.fetch(t, "/", nil)
			if code != 200 || !bytes.Contains(body, []byte(ts(window.From))) || !bytes.Contains(body, []byte(`id="stats"`)) {
				t.Errorf("%s: GET /: status %d, %d bytes", p.name, code, len(body))
			}
		}
	})

	t.Run("cells", func(t *testing.T) {
		var want []CellJSON
		for i, p := range stacks {
			var got []CellJSON
			if code := getJSON(t, p.ts.URL+"/api/cells", &got); code != 200 || len(got) != 36 {
				t.Fatalf("%s: cells: status %d, %d cells", p.name, code, len(got))
			}
			if i == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cell inventory differs from the engine's", p.name)
			}
		}
	})

	t.Run("explore", func(t *testing.T) {
		// Windows that cross the day boundary: no sealed node covers them
		// (the store is still open), so an engine extracts its highlights
		// from the merged window like a coordinator does.
		span := "from=" + ts(noon0) + "&to=" + ts(noon1)
		for _, path := range []string{
			"/api/explore",
			"/api/explore?" + span,
			"/api/explore?" + span + box,
			"/api/explore?" + span + "&attr=CDR.upflux",
			"/api/explore?" + span + "&attr=NMS.drop_calls" + box,
		} {
			sameJSON(t, path, exploreAnswer)
		}
		// profile=1 and what each backend alone reports.
		for _, p := range stacks {
			var out ExploreJSON
			if code := getJSON(t, p.ts.URL+"/api/explore?profile=1&"+span, &out); code != 200 {
				t.Fatalf("%s: status %d", p.name, code)
			}
			if out.Profile == nil || out.TraceID == "" || out.Profile.TraceID != out.TraceID {
				t.Errorf("%s: profile=%v trace_id=%q", p.name, out.Profile, out.TraceID)
			}
			if p.clustered() {
				if out.ShardsQueried == 0 || len(out.Profile.Shards) == 0 || out.Level != "" {
					t.Errorf("%s: shards_queried=%d shards=%d covering_level=%q",
						p.name, out.ShardsQueried, len(out.Profile.Shards), out.Level)
				}
			} else if out.Level == "" || out.ShardsQueried != 0 || len(out.Stages) == 0 {
				t.Errorf("%s: covering_level=%q shards_queried=%d stages=%v",
					p.name, out.Level, out.ShardsQueried, out.Stages)
			}
			// The answer's trace resolves, rooted at this server's HTTP span.
			var tree struct {
				Name string `json:"name"`
			}
			if code := getJSON(t, p.ts.URL+"/api/trace?id="+out.TraceID, &tree); code != 200 || tree.Name != "http /api/explore" {
				t.Errorf("%s: trace %s: status %d root %q", p.name, out.TraceID, code, tree.Name)
			}
		}
	})

	t.Run("template and playback", func(t *testing.T) {
		span := "from=" + ts(noon0) + "&to=" + ts(noon1)
		for _, name := range templateNames() {
			sameJSON(t, "/api/template?name="+name+"&"+span, func(m map[string]any) any {
				return []any{m["stat"], m["cells"]}
			})
		}
		sameJSON(t, "/api/playback?step=6h&"+span, func(m map[string]any) any {
			if len(m["frames"].([]any)) != 4 {
				t.Errorf("playback frames = %d, want 4", len(m["frames"].([]any)))
			}
			return m["frames"]
		})
	})

	t.Run("sql", func(t *testing.T) {
		f, u := ts(noon0.Add(-time.Hour))[:12], ts(noon0.Add(25 * time.Hour))[:12]
		for _, q := range []string{
			// T1 equality (one epoch), T2 range, T3 aggregate, a full-row scan.
			fmt.Sprintf("SELECT upflux, downflux FROM CDR WHERE ts >= '%s' AND ts < '%s'", ts(noon0)[:12], ts(noon0.Add(30 * time.Minute))[:12]),
			fmt.Sprintf("SELECT upflux, downflux FROM CDR WHERE ts >= '%s' AND ts < '%s'", f, u),
			fmt.Sprintf("SELECT cell_id, SUM(drop_calls) AS drops, SUM(call_attempts) AS attempts FROM NMS WHERE ts >= '%s' AND ts < '%s' GROUP BY cell_id ORDER BY cell_id", f, u),
			fmt.Sprintf("SELECT * FROM CDR WHERE ts >= '%s' AND ts < '%s' AND duration > 100", f, u),
			"SELECT COUNT(*) FROM CDR",
			fmt.Sprintf("EXPLAIN SELECT upflux FROM CDR WHERE ts >= '%s' AND ts < '%s'", f, u),
		} {
			want := stacks[0].sqlRows(t, q)
			if len(want) < 2 {
				t.Errorf("%q answers no rows", q)
			}
			for _, p := range stacks[1:] {
				if got := p.sqlRows(t, q); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %q: %d rows differ from the engine's %d", p.name, q, len(got)-1, len(want)-1)
				}
			}
		}
		for _, p := range stacks {
			// EXPLAIN ANALYZE carries the backend's own profile tail.
			rows := strings.Join(p.sqlRows(t, "EXPLAIN ANALYZE SELECT COUNT(*) FROM CDR"), "\n")
			if !strings.Contains(rows, "chunks: ") || strings.Contains(rows, "shard 0 band 0") != p.clustered() {
				t.Errorf("%s: EXPLAIN ANALYZE:\n%s", p.name, rows)
			}
			// A statement that does not parse, or names no table, is the
			// client's.
			for _, q := range []string{"NOT SQL", "SELECT x FROM NOPE", ""} {
				if code, body := p.fetch(t, "/api/sql?q="+url.QueryEscape(q), nil); code != 400 {
					t.Errorf("%s: sql %q: status %d, want 400: %s", p.name, q, code, head(body))
				}
			}
		}
	})

	t.Run("sql failure statuses", func(t *testing.T) {
		q := "/api/sql?q=" + url.QueryEscape("SELECT upflux FROM CDR")
		agg := "/api/sql?q=" + url.QueryEscape("SELECT COUNT(*) FROM CDR")
		for _, p := range stacks {
			// A scan that dies under a canceled request is the server's 500,
			// not the statement's 400 and not a shard's 503.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rec := httptest.NewRecorder()
			p.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", q, nil).WithContext(ctx))
			if rec.Code != http.StatusInternalServerError {
				t.Errorf("%s: canceled scan: status %d, want 500: %s", p.name, rec.Code, rec.Body)
			}
			if !p.clustered() {
				continue
			}
			// A shard that fails every attempt (there are no retries) fails
			// the statement on both strict paths — row scan and aggregate —
			// as 503, and the next one answers again.
			for _, path := range []string{q, agg} {
				p.local.Node(0, 0).FailNext(1)
				if code, body := p.fetch(t, path, nil); code != http.StatusServiceUnavailable {
					t.Errorf("%s: %s with a failed shard: status %d, want 503: %s", p.name, path, code, head(body))
				}
				if code, body := p.fetch(t, path, nil); code != 200 {
					t.Errorf("%s: %s after the fault: status %d: %s", p.name, path, code, head(body))
				}
			}
		}
	})

	t.Run("partial", func(t *testing.T) {
		p := stacks[2]
		var full, partial ExploreJSON
		if code := getJSON(t, p.ts.URL+"/api/explore", &full); code != 200 || full.Partial {
			t.Fatalf("healthy explore: status %d partial=%v", code, full.Partial)
		}
		m := p.local.Coordinator.Map()
		dead := m.TimeShardOf(telco.EpochOf(noon1))
		p.local.Node(m.Slot(dead, 0), 0).FailNext(1)
		if code := getJSON(t, p.ts.URL+"/api/explore", &partial); code != 200 {
			t.Fatalf("degraded explore: status %d", code)
		}
		if !partial.Partial || partial.ShardsFailed != 1 || partial.ShardsQueried != full.ShardsQueried {
			t.Fatalf("degraded explore = partial:%v shards_failed:%d shards_queried:%d",
				partial.Partial, partial.ShardsFailed, partial.ShardsQueried)
		}
		want := []WindowJSON{{From: ts(window.From.Add(24 * time.Hour)), To: ts(window.To)}}
		if !reflect.DeepEqual(partial.Missing, want) {
			t.Errorf("missing = %v, want %v", partial.Missing, want)
		}
		if partial.Rows == 0 || partial.Rows >= full.Rows {
			t.Errorf("partial rows = %d (full %d)", partial.Rows, full.Rows)
		}
	})

	t.Run("lifecycle", func(t *testing.T) {
		for _, p := range stacks {
			base := p.ts.URL + "/api/lifecycle"
			var errBody map[string]any
			wantBadJob := http.StatusInternalServerError
			if !p.clustered() {
				var st lifecycle.Status
				if code := getJSON(t, base, &st); code != 200 || len(st.Jobs) != 3 || st.Paused {
					t.Fatalf("%s: GET: status %d %+v", p.name, code, st)
				}
				var rec lifecycle.RunRecord
				if code := postJSON(t, base+"?job="+lifecycle.JobScrub, &rec); code != 200 || rec.Job != lifecycle.JobScrub || rec.Err != "" {
					t.Fatalf("%s: trigger: status %d %+v", p.name, code, rec)
				}
				if code := postJSON(t, base+"?action=pause", &st); code != 200 || !st.Paused {
					t.Fatalf("%s: pause: status %d %+v", p.name, code, st)
				}
				if code := postJSON(t, base+"?action=resume", &st); code != 200 || st.Paused {
					t.Fatalf("%s: resume: status %d %+v", p.name, code, st)
				}
			} else {
				// The same surface through the coordinator's fleet fan-out.
				nodes := len(p.local.Nodes)
				var sweep cluster.LifecycleSweep
				if code := getJSON(t, base, &sweep); code != 200 {
					t.Fatalf("%s: GET status = %d", p.name, code)
				}
				if sweep.Failed != 0 || sweep.Partial || len(sweep.Nodes) != nodes {
					t.Fatalf("%s: status sweep = %+v", p.name, sweep)
				}
				for _, nl := range sweep.Nodes {
					if nl.Status == nil || len(nl.Status.Jobs) != 3 {
						t.Fatalf("%s: node %s status = %+v", p.name, nl.URL, nl.Status)
					}
				}
				if code := postJSON(t, base+"?job="+lifecycle.JobScrub, &sweep); code != 200 {
					t.Fatalf("%s: trigger status = %d", p.name, code)
				}
				if sweep.Failed != 0 || sweep.Partial {
					t.Fatalf("%s: trigger sweep = %+v", p.name, sweep)
				}
				for _, nl := range sweep.Nodes {
					if nl.Record == nil || nl.Record.Job != lifecycle.JobScrub {
						t.Fatalf("%s: node %s record = %+v", p.name, nl.URL, nl.Record)
					}
				}
				if code := postJSON(t, base+"?action=pause", &sweep); code != 200 {
					t.Fatalf("%s: pause status = %d", p.name, code)
				}
				for _, nl := range sweep.Nodes {
					if nl.Status == nil || !nl.Status.Paused {
						t.Fatalf("%s: node %s not paused", p.name, nl.URL)
					}
				}
				if code := postJSON(t, base+"?action=resume", &sweep); code != 200 {
					t.Fatalf("%s: resume status = %d", p.name, code)
				}
				// An unknown job fails on every node; the fan-out degrades
				// to 503.
				wantBadJob = http.StatusServiceUnavailable
			}
			if code := postJSON(t, base+"?job=defrag", &errBody); code != wantBadJob {
				t.Errorf("%s: unknown job status = %d, want %d", p.name, code, wantBadJob)
			}
			if code := postJSON(t, base+"?action=shred", &errBody); code != http.StatusBadRequest {
				t.Errorf("%s: unknown action status = %d, want 400", p.name, code)
			}
		}
	})

	t.Run("append and seal", func(t *testing.T) {
		// One more epoch arrives as a stream, is sealed through the API, and
		// is then part of every backend's answer.
		next := telco.EpochOf(window.To)
		cdr := g.CDRTable(next)
		lines := make([]string, cdr.Len())
		for i, r := range cdr.Rows {
			lines[i] = r.Line()
		}
		path := "/api/explore?from=" + ts(noon0) + "&to=" + ts(window.To.Add(time.Hour))
		var before ExploreJSON
		getJSON(t, stacks[0].ts.URL+path, &before)
		for _, p := range stacks {
			var res AppendResultJSON
			if code, body := p.fetch(t, "/api/append", AppendJSON{Table: "CDR", Rows: lines, Seal: true}); code != 200 {
				t.Fatalf("%s: append: status %d: %s", p.name, code, head(body))
			} else if err := json.Unmarshal(body, &res); err != nil || res.Rows != len(lines) {
				t.Fatalf("%s: append accepted %d of %d rows (%v)", p.name, res.Rows, len(lines), err)
			}
			if code, body := p.fetch(t, "/api/append", AppendJSON{Table: "NOPE", Rows: lines[:1]}); code != 400 {
				t.Errorf("%s: append to an unknown table: status %d: %s", p.name, code, head(body))
			}
		}
		sameJSON(t, path, func(m map[string]any) any {
			if got := int64(m["rows"].(float64)); got != before.Rows+int64(len(lines)) {
				t.Errorf("rows after the append = %d, want %d + %d", got, before.Rows, len(lines))
			}
			return exploreAnswer(m)
		})
	})

	t.Run("observability", func(t *testing.T) {
		for _, p := range stacks {
			code, body := p.fetch(t, "/metrics", nil)
			if code != 200 || !bytes.Contains(body, []byte(`spate_http_requests_total{endpoint="/api/explore",code="200"}`)) {
				t.Errorf("%s: /metrics: status %d", p.name, code)
			}
			var stats []obs.Metric
			if code := getJSON(t, p.ts.URL+"/api/stats", &stats); code != 200 || len(stats) == 0 {
				t.Errorf("%s: /api/stats: status %d, %d families", p.name, code, len(stats))
			}
			var traces, slow []map[string]any
			if code := getJSON(t, p.ts.URL+"/api/trace", &traces); code != 200 || len(traces) == 0 {
				t.Errorf("%s: /api/trace: status %d, %d traces", p.name, code, len(traces))
			}
			if code := getJSON(t, p.ts.URL+"/api/slowlog", &slow); code != 200 {
				t.Errorf("%s: /api/slowlog: status %d", p.name, code)
			}
		}
	})

	t.Run("routes of one backend only", func(t *testing.T) {
		for _, p := range stacks {
			// /api/space must stay 404 over a coordinator: benchmarks/e2e/
			// server.go takes that 404 as its cue to walk the nodes' files
			// instead, and stored_bytes_per_raw_byte on cluster-mix has a
			// 2 % bound — a cluster /api/space that answered anything else
			// than those files' total would move it.
			want := map[string]int{"/api/space": 200, "/api/tree": 200, "/api/health": 404}
			if p.clustered() {
				want = map[string]int{"/api/space": 404, "/api/tree": 404, "/api/health": 200}
			}
			for path, code := range want {
				if got, _ := p.fetch(t, path, nil); got != code {
					t.Errorf("%s: GET %s: status %d, want %d", p.name, path, got, code)
				}
			}
		}
	})
}

// stubBackend answers explorations from a function; the playback test
// counts them.
type stubBackend struct {
	backend
	exploreFn func(context.Context, core.Query) (exploration, error)
}

func (b stubBackend) explore(ctx context.Context, q core.Query) (exploration, error) {
	return b.exploreFn(ctx, q)
}

// TestPlaybackStopsWhenCanceled: the frames of a playback run under the
// request's context, so a client that goes away ends the loop at the next
// frame instead of leaving up to 96 explorations running.
func TestPlaybackStopsWhenCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	stub := stubBackend{backend: coordBackend{}, exploreFn: func(c context.Context, _ core.Query) (exploration, error) {
		if calls++; calls == 3 {
			cancel() // the client disconnects during the third frame
		}
		return exploration{Result: &core.Result{Summary: &highlights.Summary{}}}, c.Err()
	}}
	day := time.Date(2016, 1, 18, 0, 0, 0, 0, time.UTC)
	srv := newServer(stub, nil, telco.NewTimeRange(day, day.Add(24*time.Hour)))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/playback", nil).WithContext(ctx))
	if calls != 3 || rec.Code != http.StatusInternalServerError {
		t.Fatalf("playback ran %d of 48 frames and answered %d; want it to stop at the 3rd with 500", calls, rec.Code)
	}
}
