// Integration tests of the serving tier against the real HTTP surfaces:
// answer parity (an admitted request must be bit-for-bit what the
// unprotected path serves), and thundering-herd behaviour (a zipf-skewed
// client fleet collapses onto roughly one evaluation per hot window
// through the shared cache plus singleflight, with honest spaced
// Retry-After hints on the shed remainder).
package serving_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"spate/internal/cluster"
	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/serving"
	"spate/internal/snapshot"
	"spate/internal/telco"
	"spate/internal/webui"
)

// testGen builds the small deterministic workload every variant ingests.
func testGen() (*gen.Generator, gen.Config) {
	cfg := gen.DefaultConfig(0.002)
	cfg.Antennas = 12
	cfg.Users = 80
	cfg.CDRPerEpoch = 40
	cfg.NMSReportsPerCell = 0.5
	return gen.New(cfg), cfg
}

// newEngine opens an engine over a fresh store and ingests 4 epochs.
func newEngine(t *testing.T, opts core.Options) (*core.Engine, telco.TimeRange, []gen.Cell) {
	t.Helper()
	g, cfg := testGen()
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), opts)
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
	eng.FinishIngest()
	return eng, telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour)), g.Cells()
}

// fetchCanonical fetches url and returns the JSON body with the volatile
// fields (per-run timings and trace identity) stripped, so two answers
// compare structurally equal exactly when their data agrees.
func fetchCanonical(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode %s: %v (%s)", url, err, body)
	}
	delete(m, "stages_ms")
	delete(m, "trace_id")
	return resp.StatusCode, m
}

// exploreURLs is the query mix both parity variants replay, including
// repeats (cache-hit answers must agree too) and boxed windows. Every
// query pins attr: without it the per-cell value is taken from whichever
// attribute map iteration lands on, which differs even between two bare
// servers and would mask real divergence.
func exploreURLs(base string, window telco.TimeRange) []string {
	from, to := window.From.Format(telco.TimeLayout), window.To.Format(telco.TimeLayout)
	mid := window.From.Add(30 * time.Minute).Format(telco.TimeLayout)
	const attr = "attr=CDR.downflux"
	return []string{
		base + "/api/explore?" + attr,
		base + "/api/explore?from=" + from + "&to=" + to + "&" + attr,
		base + "/api/explore?from=" + from + "&to=" + mid + "&" + attr,
		base + "/api/explore?from=" + from + "&to=" + to + "&minx=0&miny=0&maxx=5&maxy=5&" + attr,
		base + "/api/explore?from=" + from + "&to=" + to + "&" + attr, // repeat: cache hit
	}
}

// TestServingParitySingleNode pins the acceptance contract on the
// single-engine server: the admission middleware plus the shared result
// cache must not change one byte of an admitted answer relative to an
// unprotected engine over the same data.
func TestServingParitySingleNode(t *testing.T) {
	// Variant A: bare server, built-in engine cache, no admission.
	engA, window, cells := newEngine(t, core.Options{Obs: obs.NewRegistry()})
	srvA := httptest.NewServer(webui.NewServer(engA, cells, window).Handler())
	defer srvA.Close()

	// Variant B: shared serving cache and generous admission in front.
	shared := serving.NewLRU(32<<20, obs.NewRegistry())
	engB, _, _ := newEngine(t, core.Options{
		Obs:         obs.NewRegistry(),
		ResultCache: serving.Namespace(shared, "engine"),
	})
	uiB := webui.NewServer(engB, cells, window)
	uiB.SetAdmission(serving.NewController(serving.Config{
		Default: serving.Limits{RPS: 10000, MaxConcurrent: 64},
		Obs:     obs.NewRegistry(),
	}))
	srvB := httptest.NewServer(uiB.Handler())
	defer srvB.Close()

	urlsA := exploreURLs(srvA.URL, window)
	urlsB := exploreURLs(srvB.URL, window)
	for i := range urlsA {
		codeA, a := fetchCanonical(t, urlsA[i])
		codeB, b := fetchCanonical(t, urlsB[i])
		if codeA != 200 || codeB != 200 {
			t.Fatalf("query %d: status %d vs %d", i, codeA, codeB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %d: admitted answer diverges from unprotected path\nbare:    %v\nserving: %v", i, a, b)
		}
	}
	if st := shared.Stats(); st.Entries == 0 || st.Hits == 0 {
		t.Errorf("shared cache unused: %+v (the serving path should populate and hit it)", st)
	}
}

// TestServingParityCluster runs the same contract over a 4-shard local
// cluster: two UI servers — admission-fronted and bare — each with its own
// coordinator over the same shard nodes, as the single-node variant gives
// each server its own engine (a coordinator keeps the answers it served,
// so one shared by both would answer the second server's ask from what it
// kept for the first), must serve identical scatter-gathered answers.
func TestServingParityCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 4-node loopback cluster")
	}
	g, cfg := testGen()
	local, err := cluster.StartLocal(
		cluster.Config{Shards: 4, Obs: obs.NewRegistry(), Tracer: obs.NewTracer(64)},
		g.CellTable(),
		cluster.LocalOptions{
			Dir:    t.TempDir(),
			Engine: core.Options{Obs: obs.NewRegistry()},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < 4; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		if err := local.Coordinator.Ingest(context.Background(), sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := local.Coordinator.FinishIngest(context.Background()); err != nil {
		t.Fatal(err)
	}
	window := telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour))

	bare := httptest.NewServer(webui.NewClusterServer(local.Coordinator, g.Cells(), window).Handler())
	defer bare.Close()
	nodes := make([][]string, len(local.URLs)) // one replica per slot
	for slot, url := range local.URLs {
		nodes[slot] = []string{url}
	}
	coord, err := cluster.NewCoordinator(cluster.Config{Shards: 4, Obs: obs.NewRegistry(), Tracer: obs.NewTracer(64)},
		local.Coordinator.Map(), nodes, g.CellTable())
	if err != nil {
		t.Fatal(err)
	}
	guarded := webui.NewClusterServer(coord, g.Cells(), window)
	guarded.SetAdmission(serving.NewController(serving.Config{
		Default: serving.Limits{RPS: 10000, MaxConcurrent: 64},
		Obs:     obs.NewRegistry(),
	}))
	srvG := httptest.NewServer(guarded.Handler())
	defer srvG.Close()

	urlsA := exploreURLs(bare.URL, window)
	urlsB := exploreURLs(srvG.URL, window)
	for i := range urlsA {
		codeA, a := fetchCanonical(t, urlsA[i])
		codeB, b := fetchCanonical(t, urlsB[i])
		if codeA != 200 || codeB != 200 {
			t.Fatalf("query %d: status %d vs %d", i, codeA, codeB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %d: admitted cluster answer diverges\nbare:    %v\nserving: %v", i, a, b)
		}
	}
}

// TestThunderingHerd sends a concurrent zipf-skewed volley at an
// admission-fronted server and checks the serving tier's three promises:
// hot windows evaluate roughly once (shared cache + singleflight), the
// over-limit remainder sheds with 429, and the shed hints are honest —
// spaced over the refill schedule, not one constant.
func TestThunderingHerd(t *testing.T) {
	engReg := obs.NewRegistry()
	shared := serving.NewLRU(32<<20, obs.NewRegistry())
	eng, window, cells := newEngine(t, core.Options{
		Obs:         engReg,
		ResultCache: serving.Namespace(shared, "engine"),
	})
	_ = eng
	ui := webui.NewServer(eng, cells, window)
	ctl := serving.NewController(serving.Config{
		Default: serving.Limits{RPS: 1, Burst: 4, MaxConcurrent: 8},
		Obs:     obs.NewRegistry(),
	})
	ui.SetAdmission(ctl)
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	// Three hot windows, zipf-ish skew: half the fleet hammers window 0.
	from := window.From
	windows := []string{
		"?from=" + from.Format(telco.TimeLayout) + "&to=" + from.Add(30*time.Minute).Format(telco.TimeLayout),
		"?from=" + from.Format(telco.TimeLayout) + "&to=" + from.Add(time.Hour).Format(telco.TimeLayout),
		"?from=" + from.Add(30*time.Minute).Format(telco.TimeLayout) + "&to=" + from.Add(90*time.Minute).Format(telco.TimeLayout),
	}
	pick := func(i int) string {
		switch {
		case i%2 == 0:
			return windows[0]
		case i%4 == 1:
			return windows[1]
		default:
			return windows[2]
		}
	}

	var (
		mu          sync.Mutex
		ok, shed    int
		retryAfters = map[string]bool{}
	)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Get(srv.URL + "/api/explore" + pick(c*8+i))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					shed++
					retryAfters[resp.Header.Get("Retry-After")] = true
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if ok == 0 {
		t.Fatal("herd fully shed: no admitted requests")
	}
	if shed == 0 {
		t.Fatal("herd fully admitted: rate limit never engaged (64 requests at burst 4)")
	}
	if len(retryAfters) < 2 {
		t.Errorf("Retry-After values = %v, want >= 2 distinct (spaced backoff)", retryAfters)
	}
	// Every admitted request beyond the first per window must come from
	// the shared cache or an in-flight evaluation: misses stay bounded by
	// the number of distinct hot windows.
	misses := engReg.Counter("spate_explore_cache_misses_total", "").Value()
	if misses > int64(len(windows)) {
		t.Errorf("engine evaluated %d times for %d hot windows: shared cache/singleflight not collapsing the herd", misses, len(windows))
	}
	hits := engReg.Counter("spate_explore_cache_hits_total", "").Value()
	shared901 := engReg.Counter("spate_result_singleflight_shared_total", "").Value()
	if hits+shared901 == 0 {
		t.Error("no cache hits or singleflight shares across the herd")
	}
	// Which of the two collapsed a given request is a scheduling accident:
	// with real parallelism every admitted request can join the in-flight
	// evaluation before its answer reaches the shared LRU, leaving the LRU
	// with misses only. Either way the request cost no scan.
	if st := shared.Stats(); st.Hits+shared901 == 0 {
		t.Errorf("shared cache stats = %+v with %d singleflight shares, want a hit or a share", st, shared901)
	}
}

// TestBackpressureRetryAfterPropagates checks the satellite contract on
// /api/append: a backpressured streamer's 429 carries a Retry-After
// derived from its actual backlog state instead of the historical
// constant 1.
func TestBackpressureRetryAfterPropagates(t *testing.T) {
	err := &core.BackpressureError{RetryAfter: 3500 * time.Millisecond}
	wrapped := fmt.Errorf("append: %w", err)
	if got := serving.RetryAfterFromError(wrapped, time.Second); got != 3500*time.Millisecond {
		t.Errorf("RetryAfterFromError = %v, want 3.5s", got)
	}
	h := http.Header{}
	serving.WriteRetryAfter(h, serving.RetryAfterFromError(wrapped, time.Second))
	if got := h.Get("Retry-After"); got != "4" {
		t.Errorf("Retry-After = %q, want 4 (ceil of 3.5s)", got)
	}
}
