// Serving-tier experiment: a zipf-skewed concurrent client fleet hammers
// an admission-fronted server over a handful of hot windows. The numbers
// to watch are evaluations per hot window (the shared result cache plus
// singleflight should collapse the herd onto roughly one evaluation each),
// the shed fraction, and the spread of Retry-After hints on the shed
// remainder (honest hints are spaced over the refill schedule, never one
// constant).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/serving"
	"spate/internal/snapshot"
	"spate/internal/telco"
	"spate/internal/webui"
)

// herdEpochs is how much trace the in-process herd server ingests; the
// hot-window set is carved out of this span.
const herdEpochs = 8

// hotWindows is the number of distinct query windows the zipf fleet
// draws from.
const hotWindows = 8

// herd drives a concurrent zipf client fleet against a serving-tier
// fronted server — either one it booted in-process (where it can also
// read engine-side cache counters) or a live server named by Options.URL.
type herd struct {
	o       Options
	base    string
	windows []telco.TimeRange
	tenants []string // round-robin client → tenant assignment; empty = default tenant only
	shared  *serving.LRU
	engReg  *obs.Registry
	cleanup []func()
	// resetAdmission swaps in a fresh controller so benchmark iterations
	// all start from full buckets rather than inheriting a drained one.
	resetAdmission func()
}

// herdStats aggregates one volley's client-side outcomes plus the
// engine-side evaluation count when the server runs in-process.
type herdStats struct {
	requests    int
	ok          int
	rate        int // 429
	overload    int // 503
	other       int
	retryAfters map[string]int
	byTenant    map[string]*[2]int // tenant → [admitted, shed]
	elapsed     time.Duration
	evals       int64 // engine result-cache misses during the volley; -1 when unknown (URL mode)
}

func (s *herdStats) add(o herdStats) {
	s.requests += o.requests
	s.ok += o.ok
	s.rate += o.rate
	s.overload += o.overload
	s.other += o.other
	s.elapsed += o.elapsed
	if o.evals >= 0 {
		s.evals += o.evals
	}
	for ra, n := range o.retryAfters {
		if s.retryAfters == nil {
			s.retryAfters = map[string]int{}
		}
		s.retryAfters[ra] += n
	}
}

func (h *herd) Close() {
	for i := len(h.cleanup) - 1; i >= 0; i-- {
		h.cleanup[i]()
	}
}

// reset clears the shared result cache and refills the admission buckets
// so the next volley re-evaluates the hot set from a cold, fully budgeted
// start (benchmark iterations must not inherit warmth or drained buckets).
func (h *herd) reset() {
	if h.shared != nil {
		serving.Namespace(h.shared, "engine").Clear()
	}
	if h.resetAdmission != nil {
		h.resetAdmission()
	}
}

// parseTenantMix expands "gold:2,bronze" into a client-assignment cycle:
// gold,gold,bronze. Weights are rounded down to at least one slot.
func parseTenantMix(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1.0
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = strings.TrimSpace(part[:i])
			fmt.Sscanf(part[i+1:], "%f", &weight)
		}
		n := int(weight)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			out = append(out, name)
		}
	}
	return out
}

// newHerd boots the target. With Options.URL set it points at a live
// spate-server (assumed to serve the same demo trace, so the window math
// lines up) and engine-side counters are unavailable; otherwise it builds
// a small engine behind the full serving stack: shared LRU result cache,
// admission controller with the tenant mix, webui handler.
func newHerd(o Options) (*herd, error) {
	o = o.withDefaults()
	h := &herd{o: o, tenants: parseTenantMix(o.TenantMix)}

	cfg := o.genConfig()
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < hotWindows; i++ {
		from := (e0 + telco.Epoch(i%herdEpochs)).Start()
		h.windows = append(h.windows, telco.NewTimeRange(from, from.Add(2*telco.EpochDuration)))
	}

	if o.URL != "" {
		h.base = strings.TrimRight(o.URL, "/")
		return h, nil
	}

	worldSeq++
	dir := filepath.Join(o.Dir, fmt.Sprintf("spate-serving-%d-%d", os.Getpid(), worldSeq))
	h.cleanup = append(h.cleanup, func() { os.RemoveAll(dir) })
	fs, err := dfs.NewCluster(dir, dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		h.Close()
		return nil, err
	}
	g := gen.New(cfg)
	h.engReg = obs.NewRegistry()
	h.shared = serving.NewLRU(64<<20, obs.NewRegistry())
	eng, err := core.Open(fs, g.CellTable(), core.Options{
		Obs:         h.engReg,
		ResultCache: serving.Namespace(h.shared, "engine"),
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	for i := 0; i < herdEpochs; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		if _, err := eng.Ingest(sn); err != nil {
			h.Close()
			return nil, fmt.Errorf("bench: serving ingest: %w", err)
		}
	}
	eng.FinishIngest()

	// The default budget is sized so a synchronized fleet overruns it:
	// every client gets roughly one admitted request per second, and the
	// burst absorbs half the fleet's opening volley.
	limits := serving.Limits{
		RPS:           float64(o.Clients),
		Burst:         o.Clients / 2,
		MaxConcurrent: o.Clients,
	}
	tenants, err := serving.ParseTenants(o.TenantMix, limits)
	if err != nil {
		h.Close()
		return nil, err
	}
	ctlCfg := serving.Config{Default: limits, Tenants: tenants, Obs: obs.NewRegistry()}

	window := telco.NewTimeRange(e0.Start(), (e0 + telco.Epoch(herdEpochs)).Start())
	ui := webui.NewServer(eng, g.Cells(), window)
	ui.SetAdmission(serving.NewController(ctlCfg))
	h.resetAdmission = func() { ui.SetAdmission(serving.NewController(ctlCfg)) }
	// Serve through an indirection so resetAdmission's handler swap is
	// visible to the already running listener.
	srv := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		ui.Handler().ServeHTTP(wr, r)
	}))
	h.cleanup = append(h.cleanup, srv.Close)
	h.base = srv.URL
	return h, nil
}

// run fires one volley: Clients goroutines, each issuing perClient
// explore requests over zipf-drawn hot windows, and returns the pooled
// outcome counts.
func (h *herd) run(perClient int) herdStats {
	st := herdStats{retryAfters: map[string]int{}, byTenant: map[string]*[2]int{}, evals: -1}
	var misses0 int64
	if h.engReg != nil {
		misses0 = h.engReg.Counter("spate_explore_cache_misses_total", "").Value()
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	for c := 0; c < h.o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(h.o.Seed*1009 + int64(c)))
			zipf := rand.NewZipf(rng, h.o.ZipfS, 1, uint64(len(h.windows)-1))
			tenant := ""
			if len(h.tenants) > 0 {
				tenant = h.tenants[c%len(h.tenants)]
			}
			for i := 0; i < perClient; i++ {
				w := h.windows[zipf.Uint64()]
				url := fmt.Sprintf("%s/api/explore?from=%s&to=%s",
					h.base, w.From.Format(telco.TimeLayout), w.To.Format(telco.TimeLayout))
				req, err := http.NewRequest("GET", url, nil)
				if err != nil {
					continue
				}
				if tenant != "" {
					req.Header.Set(serving.TenantHeader, tenant)
				}
				resp, err := client.Do(req)
				mu.Lock()
				st.requests++
				if err != nil {
					st.other++
					mu.Unlock()
					continue
				}
				key := tenant
				if key == "" {
					key = serving.DefaultTenant
				}
				tc := st.byTenant[key]
				if tc == nil {
					tc = new([2]int)
					st.byTenant[key] = tc
				}
				switch resp.StatusCode {
				case http.StatusOK:
					st.ok++
					tc[0]++
				case http.StatusTooManyRequests:
					st.rate++
					tc[1]++
					st.retryAfters[resp.Header.Get("Retry-After")]++
				case http.StatusServiceUnavailable:
					st.overload++
					tc[1]++
				default:
					st.other++
				}
				mu.Unlock()
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	if h.engReg != nil {
		st.evals = h.engReg.Counter("spate_explore_cache_misses_total", "").Value() - misses0
	}
	return st
}

// ServingHerd reproduces the serving-tier acceptance scenario as a bench
// experiment: concurrent zipf clients against admission control plus the
// shared result cache, with per-tenant outcome and cache-collapse tables.
func ServingHerd(w io.Writer, o Options) error {
	o = o.withDefaults()
	h, err := newHerd(o)
	if err != nil {
		return err
	}
	defer h.Close()
	perClient := 8 * o.Iterations
	st := h.run(perClient)

	tab := &Table{
		Title:  fmt.Sprintf("Serving tier: zipf herd (clients=%d, s=%.2f, %d hot windows)", o.Clients, o.ZipfS, len(h.windows)),
		Header: []string{"outcome", "count", "fraction"},
	}
	frac := func(n int) string { return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(max(1, st.requests))) }
	tab.AddRow("requests", fmt.Sprint(st.requests), "100.0%")
	tab.AddRow("admitted 200", fmt.Sprint(st.ok), frac(st.ok))
	tab.AddRow("shed 429 (rate)", fmt.Sprint(st.rate), frac(st.rate))
	tab.AddRow("shed 503 (overload)", fmt.Sprint(st.overload), frac(st.overload))
	if st.other > 0 {
		tab.AddRow("other/error", fmt.Sprint(st.other), frac(st.other))
	}
	tab.AddRow("throughput", fmt.Sprintf("%.0f req/s", float64(st.requests)/st.elapsed.Seconds()), "")
	tab.Fprint(w)

	if len(st.byTenant) > 1 {
		tt := &Table{Title: "Per-tenant outcomes", Header: []string{"tenant", "admitted", "shed"}}
		names := make([]string, 0, len(st.byTenant))
		for n := range st.byTenant {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			tc := st.byTenant[n]
			tt.AddRow(n, fmt.Sprint(tc[0]), fmt.Sprint(tc[1]))
		}
		tt.Fprint(w)
	}

	ct := &Table{Title: "Herd collapse", Header: []string{"metric", "value"}}
	if st.evals >= 0 {
		ct.AddRow("engine evaluations", fmt.Sprint(st.evals))
		ct.AddRow("evals/window", fmt.Sprintf("%.2f", float64(st.evals)/float64(len(h.windows))))
	} else {
		ct.AddRow("engine evaluations", "n/a (remote -url target)")
	}
	if h.shared != nil {
		cs := h.shared.Stats()
		ct.AddRow("shared-cache hits", fmt.Sprint(cs.Hits))
		ct.AddRow("shared-cache entries", fmt.Sprint(cs.Entries))
		ct.AddRow("shared-cache bytes", fmtMB(cs.Bytes))
	}
	ct.AddRow("distinct Retry-After", fmt.Sprint(len(st.retryAfters)))
	if len(st.retryAfters) > 0 {
		ras := make([]string, 0, len(st.retryAfters))
		for ra := range st.retryAfters {
			ras = append(ras, ra+"s")
		}
		sort.Strings(ras)
		ct.AddRow("Retry-After values", strings.Join(ras, " "))
	}
	ct.Fprint(w)
	return nil
}
