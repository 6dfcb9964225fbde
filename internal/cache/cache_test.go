package cache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"spate/internal/obs"
)

func byteLen(b []byte) int64 { return int64(len(b)) }

func newBytes(maxBytes int64, reg *obs.Registry) *LRU[[]byte] {
	return New("test_cache", "Test values", maxBytes, byteLen, reg)
}

// TestByteBoundEvictsColdestFirst: the budget bounds bytes, not entries,
// eviction takes the least recently used entry first, and every count
// reaches both Stats and the registry, under the stem and with no labels.
func TestByteBoundEvictsColdestFirst(t *testing.T) {
	reg := obs.NewRegistry()
	c := newBytes(100, reg)
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	if st := c.Stats(); st.Bytes != 80 || st.Entries != 2 {
		t.Fatalf("cache holds %d bytes / %d entries", st.Bytes, st.Entries)
	}
	if _, ok := c.Get("a"); !ok { // refresh a: b is now coldest
		t.Fatal("a missing")
	}
	c.Put("c", make([]byte, 40)) // 120 > 100: evict b
	if _, ok := c.Get("b"); ok {
		t.Error("coldest entry b survived")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted", k)
		}
	}
	st := c.Stats()
	want := Stats{Entries: 2, Bytes: 80, Hits: 3, Misses: 1, Evictions: 1}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"test_cache_hits_total 3", "test_cache_misses_total 1", "test_cache_evictions_total 1",
		"test_cache_invalidations_total 0", "test_cache_bytes 80", "test_cache_entries 2",
	} {
		if !strings.Contains(text.String(), "\n"+line+"\n") {
			t.Errorf("registry lacks %q:\n%s", line, text.String())
		}
	}
}

// TestReplaceAndOversize: replacing a key adjusts the byte count, and a
// value larger than the budget is not retained — nor is the value it
// would have replaced.
func TestReplaceAndOversize(t *testing.T) {
	c := newBytes(50, obs.NewRegistry())
	c.Put("k", make([]byte, 10))
	c.Put("k", make([]byte, 30))
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 1 {
		t.Fatalf("after replace: %d bytes / %d entries", st.Bytes, st.Entries)
	}
	c.Put("huge", make([]byte, 51))
	if _, ok := c.Get("huge"); ok {
		t.Error("entry above the budget was retained")
	}
	c.Put("k", make([]byte, 51))
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 || st.Evictions != 0 {
		t.Errorf("oversized replacement left %+v, want an empty cache and no evictions", st)
	}
}

// TestDropIfAcrossStripes: a prefix drop finds its keys on every stripe
// and counts each as an invalidation.
func TestDropIfAcrossStripes(t *testing.T) {
	c := newBytes(8<<20, obs.NewRegistry())
	if len(c.stripes) != 8 {
		t.Fatalf("8 MiB cache has %d stripes, want 8", len(c.stripes))
	}
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("/spate/data/x/CDR#v3.%d", i), make([]byte, 10))
	}
	c.Put("/spate/data/x/NMS#v3.0", make([]byte, 10))
	spread := 0
	for _, s := range c.stripes {
		if len(s.items) > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("64 keys landed on %d stripe(s)", spread)
	}
	n := c.DropIf(func(key string, _ []byte) bool { return strings.HasPrefix(key, "/spate/data/x/CDR#") })
	if n != 64 {
		t.Fatalf("dropped %d entries, want 64", n)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 10 || st.Invalidations != 64 {
		t.Fatalf("after drop: %+v", st)
	}
}

// TestDisabledBudget: a budget of zero or less stores nothing, while Do
// still loads.
func TestDisabledBudget(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := newBytes(budget, obs.NewRegistry())
		c.Put("k", nil)
		c.Put("k", make([]byte, 10))
		if _, ok := c.Get("k"); ok {
			t.Errorf("budget %d: disabled cache returned a hit", budget)
		}
		loads := 0
		for i := 0; i < 2; i++ {
			v, shared, err := c.Do("k", func() ([]byte, error) { loads++; return []byte("v"), nil })
			if string(v) != "v" || shared || err != nil {
				t.Errorf("budget %d: Do = (%q, %v, %v)", budget, v, shared, err)
			}
		}
		if loads != 2 {
			t.Errorf("budget %d: %d loads for two calls, want a fresh load each time", budget, loads)
		}
		if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
			t.Errorf("budget %d: stats %+v", budget, st)
		}
	}
}

// TestStripesFromBudget: one stripe per MiB, at most 16, a single global
// LRU under 2 MiB; each stripe owns its share of the budget, so an entry
// above the share is refused even when the whole budget would fit it.
func TestStripesFromBudget(t *testing.T) {
	for _, tc := range []struct {
		max  int64
		want int
	}{{64 << 20, 16}, {1 << 30, 16}, {8 << 20, 8}, {2 << 20, 2}, {1 << 20, 1}, {100, 1}, {0, 1}, {-1, 1}} {
		if n := len(newBytes(tc.max, obs.NewRegistry()).stripes); n != tc.want {
			t.Errorf("%d-byte budget has %d stripes, want %d", tc.max, n, tc.want)
		}
	}
	c := newBytes(8<<20, obs.NewRegistry())
	var total int64
	for _, s := range c.stripes {
		total += s.cap
	}
	if total != 8<<20 {
		t.Errorf("stripe shares sum to %d, want the whole budget", total)
	}
	c.Put("oversize", make([]byte, 2<<20)) // 2 MiB > 8 MiB / 8 stripes
	if _, ok := c.Get("oversize"); ok {
		t.Error("entry above the per-stripe share was admitted")
	}
}

// TestDoStoresSuccessesOnly: Do stores what load returns and serves it
// from the cache after; a failed load is not stored.
func TestDoStoresSuccessesOnly(t *testing.T) {
	c := newBytes(1<<10, obs.NewRegistry())
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed load returned %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("a failed load was stored")
	}
	if v, shared, err := c.Do("k", func() ([]byte, error) { return []byte("v"), nil }); string(v) != "v" || shared || err != nil {
		t.Fatalf("load: (%q, %v, %v)", v, shared, err)
	}
	v, shared, err := c.Do("k", func() ([]byte, error) {
		t.Error("load ran on a cached key")
		return nil, nil
	})
	if string(v) != "v" || shared || err != nil {
		t.Fatalf("hit: (%q, %v, %v)", v, shared, err)
	}
}

// TestConcurrent hammers a striped cache with Get, Put, Do and DropIf from
// many goroutines; under -race it pins the concurrency contract, and the
// global invariants must hold afterwards: the byte bound, bytes agreeing
// with entries, and a final drop clearing every stripe.
func TestConcurrent(t *testing.T) {
	c := newBytes(8<<20, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("/spate/data/%d/chunk-%d", g%4, i%64)
				switch i % 4 {
				case 0:
					c.Put(key, make([]byte, 512))
				case 1:
					c.Get(key)
				case 2:
					c.Do(key, func() ([]byte, error) { return make([]byte, 512), nil })
				case 3:
					if i%97 == 3 {
						prefix := fmt.Sprintf("/spate/data/%d/", g%4)
						c.DropIf(func(k string, _ []byte) bool { return strings.HasPrefix(k, prefix) })
					} else {
						c.Stats()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 8<<20 || st.Bytes != int64(st.Entries)*512 {
		t.Fatalf("stats %+v: bound violated or bytes disagree with 512 B entries", st)
	}
	c.DropIf(func(string, []byte) bool { return true })
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after dropping everything: %+v", st)
	}
}
