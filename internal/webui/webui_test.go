package webui

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spate/internal/cluster"
	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

func newTestServer(t *testing.T) (*httptest.Server, gen.Config) {
	t.Helper()
	cfg := gen.DefaultConfig(0.002)
	cfg.Antennas = 12
	cfg.Users = 80
	cfg.CDRPerEpoch = 40
	cfg.NMSReportsPerCell = 0.5
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < 4; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	window := telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour))
	srv := NewServer(eng, g.Cells(), window)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, cfg
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestCellsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var cells []CellJSON
	if code := getJSON(t, ts.URL+"/api/cells", &cells); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(cells) != 36 {
		t.Errorf("cells = %d, want 36", len(cells))
	}
	for _, c := range cells {
		if c.ID == 0 || (c.Tech != "GSM" && c.Tech != "UMTS" && c.Tech != "LTE") {
			t.Errorf("bad cell %+v", c)
		}
	}
}

func TestExploreEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var out ExploreJSON
	if code := getJSON(t, ts.URL+"/api/explore", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Rows == 0 || len(out.Cells) == 0 {
		t.Fatalf("explore = %+v", out)
	}
	// A second identical query is a cache hit.
	var again ExploreJSON
	getJSON(t, ts.URL+"/api/explore", &again)
	if !again.CacheHit {
		t.Error("no cache hit on repeated explore")
	}
	// Box restriction.
	var boxed ExploreJSON
	getJSON(t, ts.URL+"/api/explore?minx=0&miny=0&maxx=40&maxy=38", &boxed)
	if boxed.Rows >= out.Rows {
		t.Errorf("boxed rows %d >= all %d", boxed.Rows, out.Rows)
	}
	// Window restriction with a truncated timestamp.
	var windowed ExploreJSON
	code := getJSON(t, ts.URL+"/api/explore?from=2016011800&to=2016011801", &windowed)
	if code != 200 || windowed.Rows == 0 || windowed.Rows >= out.Rows {
		t.Errorf("windowed = %+v (status %d)", windowed, code)
	}
}

func TestExploreBadParams(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]string
	if code := getJSON(t, ts.URL+"/api/explore?from=xx", &out); code != http.StatusBadRequest {
		t.Errorf("bad from: status %d", code)
	}
	if out["error"] == "" {
		t.Error("no error message")
	}
}

func TestSQLEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var out struct {
		Cols []string   `json:"cols"`
		Rows [][]string `json:"rows"`
	}
	url := ts.URL + "/api/sql?q=" + strings.ReplaceAll("SELECT call_type, COUNT(*) FROM CDR GROUP BY call_type", " ", "%20")
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Cols) != 2 || len(out.Rows) == 0 {
		t.Errorf("sql = %+v", out)
	}
	var errOut map[string]string
	if code := getJSON(t, ts.URL+"/api/sql?q=NOT%20SQL", &errOut); code != http.StatusBadRequest {
		t.Errorf("bad sql: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/sql", &errOut); code != http.StatusBadRequest {
		t.Errorf("missing q: status %d", code)
	}
}

func TestSpaceEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]float64
	if code := getJSON(t, ts.URL+"/api/space", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out["raw_bytes"] <= out["comp_bytes"] || out["comp_bytes"] <= 0 {
		t.Errorf("space = %v", out)
	}
	// No day has sealed, so no leaf keeps a summary encoding yet.
	if kept, ok := out["kept_summary_bytes"]; !ok || kept != 0 {
		t.Errorf("kept_summary_bytes = %v (present %v), want 0", kept, ok)
	}
}

func TestIndexPage(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "SPATE") || !strings.Contains(body, "canvas") {
		t.Errorf("index page wrong: %.120s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	// Unknown paths 404.
	r2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d", r2.StatusCode)
	}
}

func TestTemplateQueries(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, name := range templateNames() {
		var out struct {
			Template string            `json:"template"`
			Stat     string            `json:"stat"`
			Cells    []ExploreCellJSON `json:"cells"`
		}
		if code := getJSON(t, ts.URL+"/api/template?name="+name, &out); code != 200 {
			t.Fatalf("%s: status %d", name, code)
		}
		if out.Template != name || len(out.Cells) == 0 {
			t.Errorf("%s: %+v", name, out)
		}
		if name == "rssi" {
			if out.Stat != "mean" {
				t.Errorf("rssi stat = %s", out.Stat)
			}
			for _, c := range out.Cells {
				if c.Value > -60 || c.Value < -110 {
					t.Errorf("rssi mean %v out of physical range", c.Value)
				}
			}
		}
	}
	var errOut map[string]string
	if code := getJSON(t, ts.URL+"/api/template?name=nope", &errOut); code != http.StatusBadRequest {
		t.Errorf("unknown template: status %d", code)
	}
}

func TestPlayback(t *testing.T) {
	ts, cfg := newTestServer(t)
	_ = cfg
	var out struct {
		Step   string `json:"step"`
		Frames []struct {
			From  string            `json:"from"`
			To    string            `json:"to"`
			Rows  int64             `json:"rows"`
			Cells []ExploreCellJSON `json:"cells"`
		} `json:"frames"`
	}
	if code := getJSON(t, ts.URL+"/api/playback", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Frames) != 4 { // 2h window / 30min epochs
		t.Fatalf("frames = %d, want 4", len(out.Frames))
	}
	var total int64
	for _, fr := range out.Frames {
		total += fr.Rows
		if fr.From >= fr.To {
			t.Errorf("bad frame bounds %s..%s", fr.From, fr.To)
		}
	}
	if total == 0 {
		t.Error("empty playback")
	}
	// Custom step.
	if code := getJSON(t, ts.URL+"/api/playback?step=1h", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Frames) != 2 {
		t.Errorf("1h frames = %d, want 2", len(out.Frames))
	}
	// Frame-count bound and bad steps are rejected.
	var errOut map[string]string
	if code := getJSON(t, ts.URL+"/api/playback?step=1s", &errOut); code != http.StatusBadRequest {
		t.Errorf("tiny step: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/playback?step=banana", &errOut); code != http.StatusBadRequest {
		t.Errorf("bad step: status %d", code)
	}
}

func TestTreeEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var root TreeNodeJSON
	if code := getJSON(t, ts.URL+"/api/tree", &root); code != 200 {
		t.Fatalf("status %d", code)
	}
	if root.Level != "root" || len(root.Children) != 1 {
		t.Fatalf("root = %+v", root)
	}
	year := root.Children[0]
	if year.Level != "year" || len(year.Children) != 1 {
		t.Fatalf("year = %+v", year)
	}
	day := year.Children[0].Children[0]
	if day.Level != "day" || len(day.Children) != 4 {
		t.Fatalf("day = level %s with %d children", day.Level, len(day.Children))
	}
	for _, leaf := range day.Children {
		if leaf.Level != "epoch" || leaf.From == "" {
			t.Errorf("leaf = %+v", leaf)
		}
	}
}

func TestExploreAttrFilter(t *testing.T) {
	ts, _ := newTestServer(t)
	var out ExploreJSON
	url := fmt.Sprintf("%s/api/explore?attr=%s", ts.URL, "NMS.drop_calls")
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Cells) == 0 {
		t.Fatal("no cells")
	}
}

// TestExploreCellsDeterministic: without an attr parameter a cell renders
// its smallest-named attribute, so identical requests agree — on the
// function both handlers share, and through each handler (whose cells
// carry the four default per-cell attributes).
func TestExploreCellsDeterministic(t *testing.T) {
	// One cell whose four tracked attributes sum to 3, 5, 7 and 11.
	sum := highlights.NewSummary(telco.TimeRange{})
	for _, row := range []struct {
		schema *telco.Schema
		vals   map[string]int64
	}{
		{telco.NMSSchema, map[string]int64{"drop_calls": 3, "rssi_dbm": 11}},
		{telco.CDRSchema, map[string]int64{telco.AttrUpflux: 5, telco.AttrDownflux: 7}},
	} {
		rec := make(telco.Record, row.schema.NumFields())
		for i, f := range row.schema.Fields {
			rec[i] = telco.Null
			if f.Name == telco.AttrCellID {
				rec[i] = telco.Int(1)
			} else if v, ok := row.vals[f.Name]; ok {
				rec[i] = telco.Int(v)
			}
		}
		tab := telco.NewTable(row.schema)
		tab.Append(rec)
		sum.AddTable(highlights.DefaultConfig(), tab)
	}
	_, _, attrs := sum.Cell(0)
	cell := core.CellSeries{CellID: 1, Rows: 9, Attr: attrs}
	s := &Server{}
	value := func(attr string) float64 {
		var out []ExploreCellJSON
		if err := json.Unmarshal(s.appendCells(nil, &core.Result{Cells: []core.CellSeries{cell}}, attr), &out); err != nil || len(out) != 1 {
			t.Fatalf("attr=%q: %d cells, %v", attr, len(out), err)
		}
		return out[0].Value
	}
	for i := 0; i < 50; i++ {
		if got := value(""); got != 7 {
			t.Fatalf("render %d: value %v, want CDR.downflux's 7", i, got)
		}
		if got := value("NMS.rssi_dbm"); got != 11 {
			t.Fatalf("render %d: attr=NMS.rssi_dbm value %v, want 11", i, got)
		}
	}
	// Names order as strings, not as (table, attribute) pairs: "A-.a"
	// sorts before "A.z", though table "A" sorts before "A-".
	odd := highlights.NewSummary(telco.TimeRange{})
	for _, col := range []struct {
		table, attr string
		v           int64
	}{{"A", "z", 1}, {"A-", "a", 2}} {
		tab := telco.NewTable(telco.MustSchema(col.table, []telco.Field{
			{Name: telco.AttrCellID, Kind: telco.KindInt}, {Name: col.attr, Kind: telco.KindInt}}))
		tab.Append(telco.Record{telco.Int(1), telco.Int(col.v)})
		ref := []highlights.AttrRef{{Table: col.table, Attr: col.attr}}
		odd.AddTable(highlights.Config{Numeric: ref, CellAttrs: ref}, tab)
	}
	_, _, cell.Attr = odd.Cell(0)
	if got := value(""); got != 2 {
		t.Fatalf("value %v, want A-.a's 2", got)
	}

	single, _ := newTestServer(t)
	clustered, _, _ := newClusterTestServer(t, cluster.Config{Shards: 2, Replicas: 1})
	for name, ts := range map[string]*httptest.Server{"server": single, "cluster": clustered} {
		var first []ExploreCellJSON
		for i := 0; i < 50; i++ {
			var out struct {
				Cells []ExploreCellJSON `json:"cells"`
			}
			if code := getJSON(t, ts.URL+"/api/explore", &out); code != 200 || len(out.Cells) == 0 {
				t.Fatalf("%s render %d: status %d, %d cells", name, i, code, len(out.Cells))
			}
			if i == 0 {
				first = out.Cells
			} else if !reflect.DeepEqual(out.Cells, first) {
				t.Fatalf("%s: render %d differs from render 0", name, i)
			}
		}
	}
}

// TestParseBoxQuery pins what a box parameter reads as: fmt's %g, with
// spaces around the number skipped and anything after it ignored. An
// absent, blank or unreadable minx is no box at all; another corner that
// is absent or unreadable is 0.
func TestParseBoxQuery(t *testing.T) {
	box := func(x1, y1 float64) geo.Rect { return geo.NewRect(x1, y1, 40, 30) }
	for _, tc := range []struct {
		minx, miny string
		want       geo.Rect
	}{
		{"", "2", geo.Rect{}},
		{" ", "2", geo.Rect{}},
		{"abc", "2", geo.Rect{}},
		{"1e", "2", geo.Rect{}},
		{"1.5", "2", box(1.5, 2)},
		{"1.5abc", "2", box(1.5, 2)},
		{" 1.5", "2", box(1.5, 2)},
		{"1.5 ", "2", box(1.5, 2)},
		{"  2  ", "2", box(2, 2)},
		{"\t3", "2", box(3, 2)},
		{"-3e2", "2", box(-300, 2)},
		{"0x1p-2", "2", box(0.25, 2)},
		{"+7", "2", box(7, 2)},
		{"1,5", "2", box(1, 2)},
		{"1_000", "2", box(1000, 2)},
		{".5", "2", box(0.5, 2)},
		{"5.", "2", box(5, 2)},
		{"Inf", "2", box(math.Inf(1), 2)},
		{"1", "", box(1, 0)},
		{"1", "x", box(1, 0)},
		{"1", " 2.5abc ", box(1, 2.5)},
	} {
		q := url.Values{"maxx": {"40"}, "maxy": {"30"}}
		for k, v := range map[string]string{"minx": tc.minx, "miny": tc.miny} {
			if v != "" {
				q.Set(k, v)
			}
		}
		if got := parseBoxQuery(q); got != tc.want {
			t.Errorf("minx=%q miny=%q: %v, want %v", tc.minx, tc.miny, got, tc.want)
		}
	}
}

// FuzzParseBoxQuery: a box reads, corner for corner and bit for bit, what
// fmt's %g makes of each parameter — the plain-decimal shortcut included.
func FuzzParseBoxQuery(f *testing.F) {
	for _, v := range []string{
		"1.5", "-3e2", " 2 ", "0x1p-2", "1_000", ".5", "5.", "+7", "-", "+", ".", "-.",
		"1e400", "00012.5000", "-0", "1.5.5", "Inf", "nan", "1,5",
		"123456789012345678901234567890", "0.000000000000000000000000000001", "٣",
		"1" + strings.Repeat("0", 400), "-0." + strings.Repeat("0", 400) + "1",
	} {
		f.Add(v, "2.25")
	}
	sscan := func(v string) (float64, bool) {
		var x float64
		if v == "" {
			return 0, false
		}
		_, err := fmt.Sscanf(v, "%g", &x)
		return x, err == nil
	}
	bits := func(r geo.Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
	}
	f.Fuzz(func(t *testing.T, minx, miny string) {
		want := geo.Rect{}
		if x, ok := sscan(minx); ok {
			y, ok := sscan(miny)
			if !ok {
				y = 0
			}
			want = geo.NewRect(x, y, 40, 30)
		}
		q := url.Values{"minx": {minx}, "miny": {miny}, "maxx": {"40"}, "maxy": {"30"}}
		if got := parseBoxQuery(q); bits(got) != bits(want) {
			t.Fatalf("minx=%q miny=%q: %v, want %v", minx, miny, got, want)
		}
	})
}

// TestCachedExploreHitsRace: requests under every attr= mode hit one
// cached answer at once, filling and reading its memo of rendered cells,
// while the result cache is cleared (what an ingest does to it) and the
// answer's period invalidated (what a decay run does), so requests also
// miss, evaluate again and cache a fresh answer with an empty memo. Every
// body's cells equal those the first miss rendered for its attr=. make
// flaky repeats it under the race detector.
func TestCachedExploreHitsRace(t *testing.T) {
	cfg := gen.DefaultConfig(0.002)
	cfg.Antennas, cfg.Users, cfg.CDRPerEpoch, cfg.NMSReportsPerCell = 12, 80, 40, 0.5
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := core.ResultsUnder(core.NewResultLRU(8<<20, obs.NewRegistry()), "")
	eng, err := core.Open(fs, g.CellTable(), core.Options{ResultCache: rc})
	if err != nil {
		t.Fatal(err)
	}
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < 4; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	window := telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour))
	h := NewServer(eng, g.Cells(), window).Handler()
	explore := func(attr string) (cells string, hit bool) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/api/explore?from="+window.From.Format(telco.TimeLayout)+"&attr="+url.QueryEscape(attr), nil))
		body := rec.Body.String()
		i, j := strings.Index(body, `"cells":`), strings.Index(body, `,"highlights":`)
		if rec.Code != http.StatusOK || i < 0 || j < i {
			t.Errorf("attr=%q: status %d, body %.200s", attr, rec.Code, body)
			return "", false
		}
		return body[i:j], strings.Contains(body, `"cache_hit":true`)
	}
	attrs := []string{"", "CDR.upflux", "CDR.downflux", "NMS.drop_calls", "NMS.rssi_dbm", "CDR.nope", "nodot"}
	want := map[string]string{}
	for _, attr := range attrs {
		want[attr], _ = explore(attr)
	}
	if want["CDR.upflux"] == want["NMS.rssi_dbm"] || want["CDR.nope"] != want["nodot"] {
		t.Fatal("the attributes render alike")
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.ClearCache()
			runtime.Gosched()
			rc.Invalidate([]telco.TimeRange{window})
			runtime.Gosched()
		}
	}()
	var readers sync.WaitGroup
	var hits atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				attr := attrs[(i+r)%len(attrs)]
				cells, hit := explore(attr)
				if cells != want[attr] {
					t.Errorf("attr=%q (hit %v): the cells differ from the first answer's", attr, hit)
					return
				}
				if hit {
					hits.Add(1)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	churn.Wait()
	if hits.Load() == 0 {
		t.Fatal("no request hit the cache")
	}
}
