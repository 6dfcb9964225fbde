package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

func rcWindow(fromHour, toHour int) telco.TimeRange {
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	return telco.NewTimeRange(base.Add(time.Duration(fromHour)*time.Hour), base.Add(time.Duration(toHour)*time.Hour))
}

// TestResultCacheInvalidateBoundaries pins the half-open invalidation
// contract: an entry whose served period is exactly adjacent to a stale
// range shares a boundary instant but no data, so it must survive, while
// any true overlap — even a single shared hour — drops the entry.
func TestResultCacheInvalidateBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		served  telco.TimeRange
		stale   telco.TimeRange
		dropped bool
	}{
		{"identical", rcWindow(0, 4), rcWindow(0, 4), true},
		{"contained", rcWindow(1, 3), rcWindow(0, 4), true},
		{"containing", rcWindow(0, 4), rcWindow(1, 3), true},
		{"overlap_left", rcWindow(0, 2), rcWindow(1, 4), true},
		{"overlap_right", rcWindow(2, 6), rcWindow(0, 3), true},
		{"adjacent_before", rcWindow(0, 2), rcWindow(2, 4), false},
		{"adjacent_after", rcWindow(4, 6), rcWindow(2, 4), false},
		{"disjoint", rcWindow(0, 1), rcWindow(5, 6), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ResultsUnder(NewResultLRU(1<<20, obs.NewRegistry()), "")
			c.Put("k", &Result{ServedPeriod: tc.served})
			c.Invalidate([]telco.TimeRange{tc.stale})
			_, ok := c.Get("k")
			if ok == tc.dropped {
				t.Errorf("served %v vs stale %v: survived=%v, want dropped=%v",
					tc.served, tc.stale, ok, tc.dropped)
			}
		})
	}
}

// TestResultCacheInvalidateMultiRange checks that one sweep with several
// stale ranges drops exactly the overlapping entries.
func TestResultCacheInvalidateMultiRange(t *testing.T) {
	lru := NewResultLRU(1<<20, obs.NewRegistry())
	c := ResultsUnder(lru, "")
	c.Put("a", &Result{ServedPeriod: rcWindow(0, 2)})
	c.Put("b", &Result{ServedPeriod: rcWindow(2, 4)})
	c.Put("c", &Result{ServedPeriod: rcWindow(4, 6)})
	c.Invalidate([]telco.TimeRange{rcWindow(1, 2), rcWindow(5, 6)})
	if _, ok := c.Get("a"); ok {
		t.Error("a overlaps [1,2): should be dropped")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b is adjacent to both ranges: should survive")
	}
	if _, ok := c.Get("c"); ok {
		t.Error("c overlaps [5,6): should be dropped")
	}
	if got := lru.Stats().Invalidations; got != 2 {
		t.Errorf("invalidations = %d, want 2", got)
	}
}

// TestResultCacheEvictionAccounting checks the byte bound, the eviction
// counter and the byte accounting through put/evict/replace/clear.
func TestResultCacheEvictionAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	unit := (&Result{ServedPeriod: rcWindow(0, 1)}).SizeBytes()
	lru := NewResultLRU(2*unit, reg)
	c := ResultsUnder(lru, "")
	c.Put("a", &Result{ServedPeriod: rcWindow(0, 1)})
	c.Put("b", &Result{ServedPeriod: rcWindow(1, 2)})
	c.Put("c", &Result{ServedPeriod: rcWindow(2, 3)}) // evicts a, the coldest
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b should still be cached")
	}
	if got := reg.Counter("spate_result_cache_evictions_total", "").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// Replacing an existing key must not evict or leak byte accounting.
	c.Put("b", &Result{ServedPeriod: rcWindow(1, 2)})
	if st := lru.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Bytes != 2*unit {
		t.Errorf("after replace: %+v, want 1 eviction and 2 entries of %d bytes", st, unit)
	}
	c.Clear()
	if st := lru.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("clear left %+v", st)
	}
}

// TestResultCacheConcurrent hammers get/put/invalidate/clear from many
// goroutines; run under -race it pins the cache's concurrency contract.
func TestResultCacheConcurrent(t *testing.T) {
	c := ResultsUnder(NewResultLRU(64<<10, obs.NewRegistry()), "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				switch i % 5 {
				case 0, 1:
					c.Put(key, &Result{ServedPeriod: rcWindow(i%6, i%6+2)})
				case 2, 3:
					c.Get(key)
				case 4:
					if i%20 == 4 {
						c.Invalidate([]telco.TimeRange{rcWindow(i%4, i%4+1)})
					} else if i%50 == 24 {
						c.Clear()
					} else {
						c.Get(key)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineResultCacheStaysInBudget: an engine's own result cache is
// bounded by bytes. Exact-row explorations of distinct windows, more of
// them than its 64 MiB hold, leave spate_result_cache_bytes within the
// budget. (A cache bounded by entries keeps them all, whatever their size.)
func TestEngineResultCacheStaysInBudget(t *testing.T) {
	if raceDetector {
		t.Skip("holds 64 MiB of results; the race detector multiplies that")
	}
	if testing.Short() {
		t.Skip("fills a 64 MiB cache")
	}
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas = 30
	cfg.Users = 300
	cfg.CDRPerEpoch = 600
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := Open(fs, g.CellTable(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	e0 := telco.EpochOf(cfg.Start)
	for i := 0; i < 2; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(g.CDRTable(s.Epoch))
		if _, err := e.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
	// Each answer holds the same ~400 rows of ~200 columns, about 2 MiB;
	// together they are a quarter more than the budget in some 40 entries.
	var put int64
	for i := 0; put <= defaultResultCacheBytes*5/4; i++ {
		w := telco.NewTimeRange(cfg.Start.Add(time.Duration(i)*time.Second), cfg.Start.Add(time.Hour))
		res, err := e.Explore(Query{Window: w, ExactRows: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatalf("window %d hit the cache", i)
		}
		put += res.SizeBytes()
	}
	var held float64
	for _, m := range reg.Snapshot() {
		if m.Name == "spate_result_cache_bytes" {
			for _, s := range m.Series {
				held += s.Value
			}
		}
	}
	if held == 0 || held > defaultResultCacheBytes {
		t.Fatalf("spate_result_cache_bytes = %.0f after %d bytes of results, want within the %d-byte budget",
			held, put, defaultResultCacheBytes)
	}
}
