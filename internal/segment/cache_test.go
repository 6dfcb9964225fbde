package segment_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"spate/internal/cache"
	"spate/internal/obs"
	"spate/internal/segment"
)

// The engine caches ChunkBytes — one inflated chunk per key — in a
// bytes-bounded cache.LRU shared by all scan workers. These tests drive that
// pairing under concurrency: every value a worker gets back must be its own
// chunk's bytes, however loads, hits, evictions and drops interleave.

func newChunkCache(maxBytes int64) *cache.LRU[[]byte] {
	return cache.New("spate_chunk_cache", "Inflated leaf chunks", maxBytes,
		func(b []byte) int64 { return int64(len(b)) }, obs.NewRegistry())
}

// openSegment encodes rows into a gzip segment of small chunks and returns
// its reader with every chunk's inflated bytes, read serially.
func openSegment(t *testing.T, rows int, base time.Time) (*segment.Reader, [][]byte) {
	t.Helper()
	c := codec(t, "gzip")
	lines, metas := buildRows(rows, 16, base)
	data := encode(t, c, 1<<10, lines, metas)
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, r.NumChunks())
	for i := range want {
		if want[i], err = r.ChunkBytes(i); err != nil {
			t.Fatal(err)
		}
	}
	return r, want
}

func TestCacheConcurrent(t *testing.T) {
	r, want := openSegment(t, 400, time.Date(2016, 1, 4, 9, 0, 0, 0, time.UTC))
	if len(want) < 8 {
		t.Fatalf("%d chunks, want enough to overflow the cache", len(want))
	}
	const budget = 4 << 10
	c := newChunkCache(budget)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ci := (g*7 + i) % len(want)
				got, _, err := c.Do(fmt.Sprintf("leaf/0@2#%d", ci), func() ([]byte, error) {
					return r.ChunkBytes(ci)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[ci]) {
					t.Errorf("chunk %d: cached bytes differ from the segment's", ci)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("byte bound violated: %d", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no chunk was evicted: the budget never bound")
	}
}

func TestStripedCacheConcurrent(t *testing.T) {
	const segs = 4
	readers := make([]*segment.Reader, segs)
	want := make([][][]byte, segs)
	base := time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC)
	for s := range readers {
		readers[s], want[s] = openSegment(t, 300, base.Add(time.Duration(s)*time.Hour))
	}
	const budget = 8 << 20 // eight 1 MiB stripes
	c := newChunkCache(budget)
	prefix := func(s int) string { return fmt.Sprintf("/spate/data/%d/", s) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := g % segs
			for i := 0; i < 400; i++ {
				ci := i % len(want[s])
				got, _, err := c.Do(fmt.Sprintf("%schunk-%d", prefix(s), ci), func() ([]byte, error) {
					return readers[s].ChunkBytes(ci)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[s][ci]) {
					t.Errorf("segment %d chunk %d: cached bytes differ from the segment's", s, ci)
					return
				}
				if i%97 == 0 { // decay drops one leaf's chunks while others scan
					c.DropIf(func(key string, _ []byte) bool { return strings.HasPrefix(key, prefix(s)) })
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, chunks := range want {
		for _, b := range chunks {
			total += int64(len(b))
		}
	}
	st := c.Stats()
	if st.Bytes > budget || st.Bytes > total {
		t.Fatalf("cache holds %d bytes: over the %d-byte budget or the %d bytes of chunks", st.Bytes, budget, total)
	}
	if st.Invalidations == 0 {
		t.Error("no chunk was dropped by the prefix sweeps")
	}
	// A final sweep must clear matching keys from all stripes at once.
	if n := c.DropIf(func(string, []byte) bool { return true }); n != st.Entries {
		t.Fatalf("full drop removed %d of %d entries", n, st.Entries)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after full drop: %d entries / %d bytes", st.Entries, st.Bytes)
	}
	// Per-stripe byte shares: a chunk larger than its stripe's share is
	// rejected outright.
	c.Put("oversize", make([]byte, 2<<20)) // 2 MiB > 8 MiB / 8 stripes
	if _, ok := c.Get("oversize"); ok {
		t.Error("entry above the per-stripe share was admitted")
	}
}
