package webui

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/lifecycle"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// newLifecycleTestServer boots a single-node UI server with (or without) an
// attached maintenance manager.
func newLifecycleTestServer(t *testing.T, attach bool) *httptest.Server {
	t.Helper()
	cfg := gen.DefaultConfig(0.002)
	cfg.Antennas = 12
	cfg.Users = 80
	cfg.CDRPerEpoch = 40
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
	for i := 0; i < 2; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(eng, g.Cells(), telco.NewTimeRange(cfg.Start, cfg.Start.Add(time.Hour)))
	if attach {
		m := lifecycle.New(eng, lifecycle.Config{Obs: obs.NewNoop()})
		t.Cleanup(m.Close)
		srv.SetLifecycle(m)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestLifecycleEndpoint covers the single-node /api/lifecycle surface: 503
// without a manager, status and trigger/pause/resume with one.
func TestLifecycleEndpoint(t *testing.T) {
	bare := newLifecycleTestServer(t, false)
	var errBody map[string]any
	if code := getJSON(t, bare.URL+"/api/lifecycle", &errBody); code != http.StatusServiceUnavailable {
		t.Fatalf("detached GET status = %d, want 503", code)
	}

	ts := newLifecycleTestServer(t, true)
	var st lifecycle.Status
	if code := getJSON(t, ts.URL+"/api/lifecycle", &st); code != 200 {
		t.Fatalf("GET status = %d", code)
	}
	if len(st.Jobs) != 3 || st.Paused {
		t.Fatalf("status = %+v", st)
	}

	var rec lifecycle.RunRecord
	if code := postJSON(t, ts.URL+"/api/lifecycle?job="+lifecycle.JobScrub, &rec); code != 200 {
		t.Fatalf("trigger status = %d", code)
	}
	if rec.Job != lifecycle.JobScrub || rec.Err != "" || rec.Details["replicas_checked"] == 0 {
		t.Fatalf("trigger record = %+v", rec)
	}

	if code := postJSON(t, ts.URL+"/api/lifecycle?action=pause", &st); code != 200 || !st.Paused {
		t.Fatalf("pause: code=%d status=%+v", code, st)
	}
	if code := postJSON(t, ts.URL+"/api/lifecycle?action=resume", &st); code != 200 || st.Paused {
		t.Fatalf("resume: code=%d status=%+v", code, st)
	}

	if code := postJSON(t, ts.URL+"/api/lifecycle?job=defrag", &errBody); code != http.StatusInternalServerError {
		t.Fatalf("unknown job status = %d, want 500", code)
	}
	if code := postJSON(t, ts.URL+"/api/lifecycle?action=shred", &errBody); code != http.StatusBadRequest {
		t.Fatalf("unknown action status = %d, want 400", code)
	}

	// The run shows up in the history the panel renders.
	if code := getJSON(t, ts.URL+"/api/lifecycle", &st); code != 200 {
		t.Fatalf("GET status = %d", code)
	}
	if len(st.History) == 0 || st.History[0].Job != lifecycle.JobScrub {
		t.Fatalf("history = %+v", st.History)
	}
}
