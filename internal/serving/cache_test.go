package serving

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/obs"
	"spate/internal/telco"
)

func window(fromHour, toHour int) telco.TimeRange {
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	return telco.NewTimeRange(base.Add(time.Duration(fromHour)*time.Hour), base.Add(time.Duration(toHour)*time.Hour))
}

func res(fromHour, toHour int) *core.Result {
	return &core.Result{ServedPeriod: window(fromHour, toHour)}
}

func newLRU(maxBytes int64) *LRU { return NewLRU(maxBytes, obs.NewRegistry()) }

func TestLRUEvictsColdestFirst(t *testing.T) {
	unit := res(0, 1).SizeBytes()
	c := newLRU(3 * unit)
	ns := Namespace(c, "ns")
	ns.Put("a", res(0, 1))
	ns.Put("b", res(1, 2))
	ns.Put("c", res(2, 3))
	ns.Get("a") // refresh a: b is now coldest
	ns.Put("d", res(3, 4))
	if _, ok := ns.Get("b"); ok {
		t.Error("b was coldest and should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := ns.Get(k); !ok {
			t.Errorf("%s should still be cached", k)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 3 entries / 1 eviction", st)
	}
	if st.Bytes != 3*unit {
		t.Errorf("bytes = %d, want %d", st.Bytes, 3*unit)
	}
}

func TestLRUReplaceAdjustsBytes(t *testing.T) {
	unit := res(0, 1).SizeBytes()
	c := newLRU(10 * unit)
	ns := Namespace(c, "ns")
	ns.Put("a", res(0, 1))
	ns.Put("a", res(0, 2)) // replace, same estimated size
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != unit {
		t.Errorf("stats after replace = %+v, want 1 entry / %d bytes", st, unit)
	}
}

func TestLRUNamespacesAreIsolated(t *testing.T) {
	c := newLRU(1 << 20)
	eng1, eng2 := Namespace(c, "eng1"), Namespace(c, "eng2")
	eng1.Put("k", res(0, 2))
	eng2.Put("k", res(4, 6))
	// Same user key, different namespaces: distinct entries.
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// Clear drops only its namespace.
	eng1.Clear()
	if _, ok := eng1.Get("k"); ok {
		t.Error("eng1 entry should be cleared")
	}
	if _, ok := eng2.Get("k"); !ok {
		t.Error("eng2 entry should survive eng1's clear")
	}
	// Invalidate scopes to its namespace even when periods overlap.
	eng1.Put("k", res(4, 6))
	eng1.Invalidate([]telco.TimeRange{window(4, 6)})
	if _, ok := eng1.Get("k"); ok {
		t.Error("eng1 entry overlaps the stale range: should drop")
	}
	if _, ok := eng2.Get("k"); !ok {
		t.Error("eng2 entry must survive eng1's invalidation")
	}
	// A namespace whose name prefixes another's does not clear it.
	eng10 := Namespace(c, "eng10")
	eng10.Put("k", res(0, 2))
	eng1.Clear()
	if _, ok := eng10.Get("k"); !ok {
		t.Error("eng10 entry must survive eng1's clear")
	}
}

func TestLRUInvalidateHalfOpenBoundaries(t *testing.T) {
	c := newLRU(1 << 20)
	ns := Namespace(c, "ns")
	ns.Put("before", res(0, 2))  // adjacent below [2,4)
	ns.Put("overlap", res(3, 5)) // overlaps [2,4)
	ns.Put("after", res(4, 6))   // adjacent above [2,4)
	ns.Invalidate([]telco.TimeRange{window(2, 4)})
	if _, ok := ns.Get("before"); !ok {
		t.Error("adjacent-below entry must survive (half-open ranges)")
	}
	if _, ok := ns.Get("after"); !ok {
		t.Error("adjacent-above entry must survive (half-open ranges)")
	}
	if _, ok := ns.Get("overlap"); ok {
		t.Error("overlapping entry must drop")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestLRUOversizedResultNotRetained(t *testing.T) {
	c := newLRU(1) // smaller than any result
	ns := Namespace(c, "ns")
	ns.Put("k", res(0, 1))
	if _, ok := ns.Get("k"); ok {
		t.Error("a result larger than the whole budget should not be retained")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("stats = %+v, want empty cache", st)
	}
}

func TestNamespaceAdapter(t *testing.T) {
	shared := newLRU(1 << 20)
	var rc core.ResultCache = Namespace(shared, "eng1")
	rc.Put("k", res(0, 2))
	if _, ok := rc.Get("k"); !ok {
		t.Fatal("adapter get should hit")
	}
	if _, ok := shared.Get("eng1\x00k"); !ok {
		t.Fatal("adapter should write through to its namespace")
	}
	rc.Invalidate([]telco.TimeRange{window(1, 3)})
	if _, ok := rc.Get("k"); ok {
		t.Error("adapter invalidate should drop the overlapping entry")
	}
	rc.Put("k", res(0, 2))
	rc.Clear()
	if st := shared.Stats(); st.Entries != 0 {
		t.Errorf("adapter clear left %d entries", st.Entries)
	}
}

// TestLRUConcurrent exercises the shared cache from many goroutines over
// several namespaces; run under -race it pins the concurrency contract
// engines rely on when they share one cache.
func TestLRUConcurrent(t *testing.T) {
	c := newLRU(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ns := Namespace(c, fmt.Sprintf("eng%d", g%3))
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				switch i % 4 {
				case 0:
					ns.Put(key, res(i%6, i%6+2))
				case 1, 2:
					ns.Get(key)
				case 3:
					if i%40 == 3 {
						ns.Invalidate([]telco.TimeRange{window(i%4, i%4+1)})
					} else if i%80 == 43 {
						ns.Clear()
					} else {
						c.Stats()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
