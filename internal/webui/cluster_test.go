package webui

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"spate/internal/cluster"
	_ "spate/internal/compress/all"
	"spate/internal/gen"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// newClusterTestServer boots a 2-shard × 2-replica in-process cluster with
// two days of trace behind the cluster Server. The coordinator reports into
// obs.Default (the config default), which is the registry the server's
// /metrics endpoint exposes — so hedge and retry counters must show there.
func newClusterTestServer(t *testing.T, cfg cluster.Config) (*httptest.Server, *cluster.Local, telco.TimeRange) {
	t.Helper()
	gc := gen.DefaultConfig(0.002)
	gc.Antennas = 12
	gc.Users = 60
	gc.CDRPerEpoch = 20
	gc.NMSReportsPerCell = 0.25
	g := gen.New(gc)
	lc, err := cluster.StartLocal(cfg, g.CellTable(), cluster.LocalOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	e0 := telco.EpochOf(gc.Start)
	n := 2 * telco.EpochsPerDay
	for i := 0; i < n; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		if err := lc.Coordinator.Ingest(context.Background(), sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Coordinator.FinishIngest(context.Background()); err != nil {
		t.Fatal(err)
	}
	window := telco.NewTimeRange(e0.Start(), (e0 + telco.Epoch(n)).Start())
	srv := NewClusterServer(lc.Coordinator, g.Cells(), window)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, lc, window
}

func TestClusterServerEndpoints(t *testing.T) {
	cfg := cluster.Config{
		Shards:         2,
		Replicas:       2,
		ExploreTimeout: 500 * time.Millisecond,
		HedgeDelay:     10 * time.Millisecond,
		Retries:        -1, // no retries: a slow slot degrades, it is not re-fought
	}
	ts, lc, window := newClusterTestServer(t, cfg)
	// The coordinator counts into obs.Default, which outlives one run of
	// this test (-count, -cpu a,b,c): counters are compared to where they
	// stood at the start.
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	partialsRE := regexp.MustCompile(`(?m)^spate_cluster_partial_results_total (\d+)$`)
	partials := func(metrics string) int {
		m := partialsRE.FindStringSubmatch(metrics)
		if m == nil {
			return 0
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	partialsBefore := partials(scrape())

	// Healthy scatter-gather over both shards.
	var out ExploreJSON
	if code := getJSON(t, ts.URL+"/api/explore", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Rows == 0 || len(out.Cells) == 0 || out.Partial || out.ShardsQueried != 2 {
		t.Fatalf("explore = %+v", out)
	}

	// A slow primary replica loses to its hedge.
	day0 := cluster.NewShardMap(cluster.Config{Shards: 2}, nil).
		TimeShardOf(telco.EpochOf(window.From))
	lc.Node(day0, 0).SetExploreDelay(300 * time.Millisecond)
	w0 := telco.TimeRange{From: window.From, To: window.From.Add(24 * time.Hour)}
	url := ts.URL + "/api/explore?from=" + w0.From.UTC().Format(telco.TimeLayout) +
		"&to=" + w0.To.UTC().Format(telco.TimeLayout)
	var hedged ExploreJSON
	if code := getJSON(t, url, &hedged); code != 200 {
		t.Fatalf("status %d", code)
	}
	if hedged.HedgeWins == 0 || hedged.Partial {
		t.Fatalf("hedged explore = %+v", hedged)
	}
	lc.Node(day0, 0).SetExploreDelay(0)

	// Both replicas of one shard stall past the deadline: the full-window
	// answer degrades to HTTP 200 with partial:true and the missing day
	// enumerated, instead of failing outright.
	other := 1 - day0
	lc.Node(other, 0).SetExploreDelay(2 * time.Second)
	lc.Node(other, 1).SetExploreDelay(2 * time.Second)
	var partial ExploreJSON
	if code := getJSON(t, ts.URL+"/api/explore", &partial); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !partial.Partial || partial.ShardsFailed != 1 || len(partial.Missing) == 0 {
		t.Fatalf("partial explore = %+v", partial)
	}
	if partial.Rows == 0 || partial.Rows >= out.Rows {
		t.Fatalf("partial rows = %d (full %d)", partial.Rows, out.Rows)
	}
	lc.Node(other, 0).SetExploreDelay(0)
	lc.Node(other, 1).SetExploreDelay(0)

	// The coordinator's counters are visible on this server's /metrics.
	metrics := scrape()
	if m := regexp.MustCompile(`(?m)^spate_cluster_hedge_wins_total ([1-9]\d*)$`).
		FindString(metrics); m == "" {
		t.Error("no nonzero spate_cluster_hedge_wins_total in /metrics")
	}
	for _, want := range []string{
		"spate_cluster_hedged_requests_total",
		`spate_cluster_retries_total{op="explore"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := partials(metrics); got != partialsBefore+1 {
		t.Errorf("spate_cluster_partial_results_total went %d -> %d, want one more", partialsBefore, got)
	}

	// Health probes every node.
	var health []NodeHealthJSON
	if code := getJSON(t, ts.URL+"/api/health", &health); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if len(health) != 4 {
		t.Fatalf("health reports %d nodes, want 4", len(health))
	}
	for _, h := range health {
		if !h.OK {
			t.Errorf("node %s unhealthy: %s", h.URL, h.Error)
		}
	}

	// Cells inventory comes from the coordinator's generator config.
	var cells []CellJSON
	if code := getJSON(t, ts.URL+"/api/cells", &cells); code != 200 {
		t.Fatalf("cells status %d", code)
	}
	if len(cells) != 36 {
		t.Errorf("cells = %d, want 36", len(cells))
	}
}
