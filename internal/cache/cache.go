// Package cache is SPATE's one in-memory cache: a bytes-bounded, striped
// LRU with a built-in singleflight. Every engine holds two — inflated leaf
// chunks (with the leaves' footers), and exploration results (the paper's
// "served directly from the cache" zoom-in) — unless the serving tier
// hands it one namespace of a results cache that engines share under one
// budget; a cluster coordinator holds one of decoded shard parts.
package cache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"spate/internal/obs"
)

// LRU is a bytes-bounded least-recently-used map from string keys to V.
//
// Keys hash (FNV-1a) to one of up to 16 independently locked stripes, each
// with its own LRU list and an equal share of the byte budget, so parallel
// scan workers missing on different chunks do not serialize on one mutex.
// The stripe count follows from the budget alone: one stripe per MiB, at
// most 16, and budgets under 2 MiB run a single global LRU. An entry larger
// than its stripe's share is not retained.
//
// All methods are safe for concurrent use.
type LRU[V any] struct {
	stripes []*stripe[V]
	size    func(V) int64
	flight  Flight[V]

	hits, misses, evictions, invalidations count
}

type stripe[V any] struct {
	mu    sync.Mutex
	cap   int64
	used  int64
	ll    list.List // of *entry[V]; front = most recently used
	items map[string]*list.Element
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// count is a per-cache tally (read by Stats) mirrored into a registry
// counter that several caches on one registry may share.
type count struct {
	n   atomic.Int64
	reg *obs.Counter
}

func (c *count) inc() {
	c.n.Add(1)
	c.reg.Inc()
}

// Stats is a point-in-time view of one cache.
type Stats struct {
	Entries       int
	Bytes         int64
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
}

const (
	maxStripes     = 16
	minStripeBytes = 1 << 20
)

func stripesFor(maxBytes int64) int {
	n := int(min(maxBytes/minStripeBytes, maxStripes))
	if n < 2 {
		return 1
	}
	return n
}

// New returns a cache bounded at maxBytes as size measures its values. A
// non-positive budget disables storing — Get misses, Put discards — while
// Do still runs one load per key at a time. It registers
// <stem>_{hits,misses,evictions,invalidations}_total and
// <stem>_{bytes,entries} on reg; what names the cached values in their
// help text. A later cache registering the same stem on the same registry
// takes the two gauges over.
func New[V any](stem, what string, maxBytes int64, size func(V) int64, reg *obs.Registry) *LRU[V] {
	n := stripesFor(maxBytes)
	c := &LRU[V]{stripes: make([]*stripe[V], n), size: size}
	share := maxBytes / int64(n)
	for i := range c.stripes {
		c.stripes[i] = &stripe[V]{cap: share, items: make(map[string]*list.Element)}
	}
	c.stripes[0].cap += maxBytes - share*int64(n)
	c.hits.reg = reg.Counter(stem+"_hits_total", what+" served from the cache.")
	c.misses.reg = reg.Counter(stem+"_misses_total", what+" not in the cache.")
	c.evictions.reg = reg.Counter(stem+"_evictions_total", what+" evicted to stay within the cache's byte bound.")
	c.invalidations.reg = reg.Counter(stem+"_invalidations_total", what+" dropped from the cache as stale.")
	reg.GaugeFunc(stem+"_bytes", "Bytes held by cached "+what+".",
		func() float64 { return float64(c.Stats().Bytes) })
	reg.GaugeFunc(stem+"_entries", "Cached "+what+".",
		func() float64 { return float64(c.Stats().Entries) })
	return c
}

// stripe maps key to its shard.
func (c *LRU[V]) stripe(key string) *stripe[V] {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.stripes[h%uint32(len(c.stripes))]
}

// Get returns the value cached under key, marking it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
	s := c.stripe(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.inc()
		var zero V
		return zero, false
	}
	c.hits.inc()
	return el.Value.(*entry[V]).val, true
}

// Put stores v under key, replacing any previous value, then evicts the
// stripe's least recently used entries until its share of the budget
// holds. A value larger than the whole share is not retained, and the
// previous value under key goes with it.
func (c *LRU[V]) Put(key string, v V) {
	size := c.size(v)
	s := c.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.removeLocked(el)
	}
	if s.cap <= 0 || size > s.cap {
		return
	}
	s.items[key] = s.ll.PushFront(&entry[V]{key: key, val: v, size: size})
	s.used += size
	for s.used > s.cap {
		s.removeLocked(s.ll.Back())
		c.evictions.inc()
	}
}

func (s *stripe[V]) removeLocked(el *list.Element) {
	e := s.ll.Remove(el).(*entry[V])
	delete(s.items, e.key)
	s.used -= e.size
}

// Do returns the value cached under key, loading and storing it on a miss.
// Concurrent misses on one key run one load; the rest wait for it under the
// Flight rules: shared reports a value another caller loaded, a failed load
// is neither stored nor handed on, and each waiter retries. The error is
// load's own, returned only to the caller that ran it; a caller that needs
// to tell a hit from its own load sees whether load ran.
func (c *LRU[V]) Do(key string, load func() (V, error)) (v V, shared bool, err error) {
	if v, ok := c.Get(key); ok {
		return v, false, nil
	}
	// No caller context: a wait lasts at most one load, which the leader
	// bounds itself.
	return c.flight.Do(context.Background(), key, func() (V, error) {
		v, err := load()
		if err == nil {
			c.Put(key, v)
		}
		return v, err
	})
}

// DropIf removes every entry for which drop reports true and returns how
// many it removed, counting each as an invalidation. It sweeps every
// stripe, since keys sharing a prefix hash everywhere, and calls drop
// outside the stripe locks: an entry a concurrent Put replaces meanwhile
// stays.
func (c *LRU[V]) DropIf(drop func(key string, v V) bool) int {
	n := 0
	for _, s := range c.stripes {
		s.mu.Lock()
		all := make([]*list.Element, 0, len(s.items))
		for _, el := range s.items {
			all = append(all, el)
		}
		s.mu.Unlock()
		var stale []*list.Element
		for _, el := range all { // an element's Value never changes
			if e := el.Value.(*entry[V]); drop(e.key, e.val) {
				stale = append(stale, el)
			}
		}
		s.mu.Lock()
		for _, el := range stale {
			if s.items[el.Value.(*entry[V]).key] == el {
				s.removeLocked(el)
				c.invalidations.inc()
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cache's occupancy and its lifetime counts.
func (c *LRU[V]) Stats() Stats {
	st := Stats{
		Hits:          c.hits.n.Load(),
		Misses:        c.misses.n.Load(),
		Evictions:     c.evictions.n.Load(),
		Invalidations: c.invalidations.n.Load(),
	}
	for _, s := range c.stripes {
		s.mu.Lock()
		st.Entries += len(s.items)
		st.Bytes += s.used
		s.mu.Unlock()
	}
	return st
}
