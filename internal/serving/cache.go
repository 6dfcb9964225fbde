package serving

import (
	"spate/internal/cache"
	"spate/internal/core"
	"spate/internal/obs"
)

// LRU is the serving tier's shared result cache: one bytes-bounded
// cache.LRU that engines in the process plug into through
// core.Options.ResultCache, each under its own namespace, so a hot engine
// can use capacity an idle one is not. It inherits the engine's
// decay/epoch invalidation contract through core.ResultsUnder; singleflight
// of identical misses stays engine-side, under the cache.
type LRU = cache.LRU[*core.Result]

// CacheStats is a point-in-time view of a shared cache.
type CacheStats = cache.Stats

// NewLRU builds a shared result cache bounded at maxBytes of
// Result.SizeBytes, reporting as spate_result_cache_* on reg.
func NewLRU(maxBytes int64, reg *obs.Registry) *LRU {
	return core.NewResultLRU(maxBytes, reg)
}

// Namespace binds one engine's namespace of a shared cache to the
// core.ResultCache contract: its keys live under the prefix ns+"\x00", and
// its Invalidate and Clear drop only that prefix.
func Namespace(c *LRU, ns string) core.ResultCache {
	return core.ResultsUnder(c, ns+"\x00")
}
