package webui

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/telco"
	"spate/internal/wal"
)

// newStreamServer starts an empty engine in streaming mode behind the UI.
func newStreamServer(t *testing.T) (*httptest.Server, *core.Engine, gen.Config) {
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
	st, err := eng.OpenStreamer(core.StreamerOptions{
		WALDir: t.TempDir(), Sync: wal.SyncNone, GroupWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	window := telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour))
	srv := NewServer(eng, g.Cells(), window)
	srv.SetStreamer(st)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng, cfg
}

func postAppend(t *testing.T, url string, req AppendJSON, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestAppendThenExplore: rows POSTed to /api/append answer /api/explore
// immediately, before any seal, and sealing via the API persists them.
func TestAppendThenExplore(t *testing.T) {
	ts, eng, cfg := newStreamServer(t)
	g := gen.New(cfg)
	e0 := telco.EpochOf(cfg.Start)
	nms := g.NMSTable(e0)
	lines := make([]string, nms.Len())
	for i, r := range nms.Rows {
		lines[i] = r.Line()
	}

	var res AppendResultJSON
	if code := postAppend(t, ts.URL, AppendJSON{Table: "NMS", Rows: lines}, &res); code != 200 {
		t.Fatalf("append status %d", code)
	}
	if res.Rows != len(lines) {
		t.Fatalf("append accepted %d rows, want %d", res.Rows, len(lines))
	}
	// Explorable before any seal.
	if eng.Snapshots() != 0 {
		t.Fatalf("engine sealed %d leaves already", eng.Snapshots())
	}
	var out ExploreJSON
	if code := getJSON(t, ts.URL+"/api/explore", &out); code != 200 {
		t.Fatalf("explore status %d", code)
	}
	if out.Rows != int64(len(lines)) {
		t.Fatalf("explore rows = %d, want %d", out.Rows, len(lines))
	}
	// Seal through the API; the answer must not change.
	if code := postAppend(t, ts.URL, AppendJSON{Seal: true}, nil); code != 200 {
		t.Fatalf("seal status %d", code)
	}
	if eng.Snapshots() != 1 {
		t.Fatalf("engine holds %d leaves after seal, want 1", eng.Snapshots())
	}
	var sealed ExploreJSON
	getJSON(t, ts.URL+"/api/explore", &sealed)
	if sealed.Rows != out.Rows {
		t.Fatalf("rows changed across seal: %d -> %d", out.Rows, sealed.Rows)
	}
}

// TestAppendErrors: typed failures surface as distinct HTTP statuses.
func TestAppendErrors(t *testing.T) {
	ts, _, cfg := newStreamServer(t)
	g := gen.New(cfg)
	e0 := telco.EpochOf(cfg.Start)
	line := g.NMSTable(e0).Rows[0].Line()

	if code := postAppend(t, ts.URL, AppendJSON{Table: "NOPE", Rows: []string{line}}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown table: status %d, want 400", code)
	}
	if code := postAppend(t, ts.URL, AppendJSON{Table: "NMS", Rows: []string{"not|a|row"}}, nil); code != http.StatusBadRequest {
		t.Errorf("bad line: status %d, want 400", code)
	}
	// Seal the epoch, then append into it: stale -> 409.
	if code := postAppend(t, ts.URL, AppendJSON{Table: "NMS", Rows: []string{line}}, nil); code != 200 {
		t.Fatalf("append status %d", code)
	}
	if code := postAppend(t, ts.URL, AppendJSON{Seal: true}, nil); code != 200 {
		t.Fatalf("seal status %d", code)
	}
	if code := postAppend(t, ts.URL, AppendJSON{Table: "NMS", Rows: []string{line}}, nil); code != http.StatusConflict {
		t.Errorf("stale append: status %d, want 409", code)
	}
	// GET is not an append (it falls through to the static UI mux).
	resp, err := http.Get(ts.URL + "/api/append")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("GET append: status 200, want an error")
	}
}

// TestAppendWithoutStreamer: a batch-mode server refuses appends with 503.
func TestAppendWithoutStreamer(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := postAppend(t, ts.URL, AppendJSON{Table: "NMS", Rows: []string{"x"}}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", code)
	}
}

// TestAppendNaNExplore: telco accepts a NaN float, and one appended NMS row
// with rssi_dbm = NaN used to turn every exploration over its window into
// an empty 200 (encoding/json refuses NaN). The answer is now complete
// JSON, with null for the cell value the NaN reaches.
func TestAppendNaNExplore(t *testing.T) {
	ts, _, cfg := newStreamServer(t)
	g := gen.New(cfg)
	row := g.NMSTable(telco.EpochOf(cfg.Start)).Rows[0].Clone()
	row[telco.NMSSchema.FieldIndex("rssi_dbm")] = telco.Float(math.NaN())
	if code := postAppend(t, ts.URL, AppendJSON{Table: "NMS", Rows: []string{row.Line()}}, nil); code != 200 {
		t.Fatalf("append status %d", code)
	}
	resp, err := http.Get(ts.URL + "/api/explore?attr=NMS.rssi_dbm")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !json.Valid(body) {
		t.Fatalf("status %d, body %q", resp.StatusCode, body)
	}
	var out struct {
		Rows  int64 `json:"rows"`
		Cells []struct {
			ID    int64    `json:"id"`
			Value *float64 `json:"value"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	cell := row.Get(telco.NMSSchema, telco.AttrCellID).Int64()
	if out.Rows != 1 || len(out.Cells) != 1 || out.Cells[0].ID != cell || out.Cells[0].Value != nil {
		t.Fatalf("answer %s, want one row and cell %d with a null value", body, cell)
	}
}
