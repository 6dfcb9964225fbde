package serving

import (
	"container/list"
	"sync"
	"sync/atomic"

	"spate/internal/core"
	"spate/internal/obs"
	"spate/internal/telco"
)

// Cache is the serving tier's shared result store. It is namespaced: one
// instance serves every engine in the process (all shard replicas of a
// local cluster) under one byte budget, with per-engine namespaces
// keeping keys and invalidation scopes apart. The interface is shaped so
// an external tier (a remote cache process) can slot in later: values
// cross it as whole *core.Result objects and every mutation is keyed by
// (namespace, key) or namespace alone.
//
// The cache inherits the engine's decay/epoch invalidation contract:
// Invalidate must drop every entry whose ServedPeriod overlaps any given
// range (half-open, like telco.TimeRange), and Clear must drop the whole
// namespace — the engine calls them on decay and ingest respectively.
// Singleflight deduplication of identical misses stays engine-side (the
// result flight of PR 8), so a shared tier needs no lease protocol.
type Cache interface {
	Get(ns, key string) (*core.Result, bool)
	Put(ns, key string, r *core.Result)
	Invalidate(ns string, ranges []telco.TimeRange)
	Clear(ns string)
	Stats() CacheStats
}

// CacheStats is a point-in-time view of a cache tier.
type CacheStats struct {
	Entries       int
	Bytes         int64
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
}

// lruEntry is one cached result with its accounting.
type lruEntry struct {
	ns   string
	key  string // full key: ns + "\x00" + user key
	res  *core.Result
	size int64
}

// LRU is the in-process tier: a bytes-bounded least-recently-used map.
// All methods are safe for concurrent use.
type LRU struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recent
	items map[string]*list.Element

	hits, misses, evictions, invalidations atomic.Int64

	// onEvict/onInvalidate mirror the atomics into registry counters;
	// nil on an unregistered LRU (tests).
	onEvict      func()
	onInvalidate func()
}

// NewLRU builds a bytes-bounded LRU tier and registers its gauges and
// counters (tier="shared") on reg; nil reg selects obs.Default. Results
// are budgeted by Result.SizeBytes.
func NewLRU(maxBytes int64, reg *obs.Registry) *LRU {
	if reg == nil {
		reg = obs.Default
	}
	c := &LRU{max: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
	reg.GaugeFunc("spate_result_cache_entries",
		"Cached exploration results.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.items))
		}, "tier", "shared")
	reg.GaugeFunc("spate_result_cache_bytes",
		"Estimated bytes held by cached exploration results.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.bytes)
		}, "tier", "shared")
	evict := reg.Counter("spate_result_cache_evictions_total",
		"Cached results evicted to stay within bounds.", "tier", "shared")
	inval := reg.Counter("spate_result_cache_invalidations_total",
		"Cached results dropped by decay/ingest invalidation.", "tier", "shared")
	c.onEvict, c.onInvalidate = evict.Inc, inval.Inc
	return c
}

// NewUnregisteredLRU builds a bytes-bounded LRU without touching any
// metrics registry (tests and embedded uses).
func NewUnregisteredLRU(maxBytes int64) *LRU {
	return &LRU{max: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *LRU) Get(ns, key string) (*core.Result, bool) {
	full := ns + "\x00" + key
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[full]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*lruEntry).res, true
}

func (c *LRU) Put(ns, key string, r *core.Result) {
	full := ns + "\x00" + key
	size := r.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[full]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += size - e.size
		e.res, e.size = r, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&lruEntry{ns: ns, key: full, res: r, size: size})
		c.items[full] = el
		c.bytes += size
	}
	// Evict coldest-first until within budget. The new entry sits at the
	// front, so it only goes when it alone exceeds the whole budget —
	// oversized results are simply not worth caching.
	for c.bytes > c.max && c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
		c.evictions.Add(1)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// removeLocked unlinks one entry; caller holds c.mu.
func (c *LRU) removeLocked(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Invalidate drops every entry of the namespace whose served period
// overlaps any of the ranges — the engine's decay/streaming-append
// invalidation contract. Invalidation is rare (decay sweeps, fresh
// rows), so the linear scan is fine.
func (c *LRU) Invalidate(ns string, ranges []telco.TimeRange) {
	if len(ranges) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*lruEntry)
		if e.ns != ns {
			continue
		}
		for _, tr := range ranges {
			if e.res.ServedPeriod.Overlaps(tr) {
				c.removeLocked(el)
				c.invalidations.Add(1)
				if c.onInvalidate != nil {
					c.onInvalidate()
				}
				break
			}
		}
	}
}

// Clear drops the whole namespace (the engine's ingest-time cache
// clear); other engines' entries survive.
func (c *LRU) Clear(ns string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*lruEntry).ns == ns {
			c.removeLocked(el)
		}
	}
}

func (c *LRU) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := len(c.items), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Entries:       entries,
		Bytes:         bytes,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// nsCache adapts one namespace of a shared Cache onto the engine's
// core.ResultCache contract, so core.Options.ResultCache can plug a
// process-wide cache in without core importing serving.
type nsCache struct {
	c  Cache
	ns string
}

// Namespace binds a shared cache to one engine's namespace.
func Namespace(c Cache, ns string) core.ResultCache {
	return nsCache{c: c, ns: ns}
}

func (n nsCache) Get(key string) (*core.Result, bool) { return n.c.Get(n.ns, key) }
func (n nsCache) Put(key string, r *core.Result)      { n.c.Put(n.ns, key, r) }
func (n nsCache) Invalidate(ranges []telco.TimeRange) { n.c.Invalidate(n.ns, ranges) }
func (n nsCache) Clear()                              { n.c.Clear(n.ns) }
