// Package serving is the multi-tenant admission tier in front of the
// SPATE HTTP surfaces: per-tenant token-bucket rate limits and
// concurrency caps with load shedding (429 with an honest Retry-After
// derived from bucket refill, 503 on queue overflow), a bounded FIFO
// admission queue so briefly-over-limit queries wait instead of failing,
// and a shared bytes-bounded result cache a single-engine server plugs
// into through core.Options.ResultCache.
//
// Tenant identity rides on the X-Spate-Tenant header. The admission
// middleware stamps it into the request context; the cluster client
// re-injects it into shard RPCs, so per-shard load is attributable to
// the tenant that caused it.
package serving

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"spate/internal/core"
)

// TenantHeader names the HTTP header carrying the caller's tenant
// identity, end to end: client → admission middleware → request context
// → cluster RPC → shard node.
const TenantHeader = "X-Spate-Tenant"

// DefaultTenant is the identity of requests without a tenant header.
// Unknown tenants also account under it, so one client inventing names
// cannot blow up metric cardinality or mint fresh rate buckets.
const DefaultTenant = "default"

type tenantCtxKey struct{}

// ContextWithTenant stamps a tenant identity into ctx.
func ContextWithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext returns the tenant stamped into ctx, "" when none.
func TenantFromContext(ctx context.Context) string {
	t, _ := ctx.Value(tenantCtxKey{}).(string)
	return t
}

// TenantFromHeader reads the sanitized tenant identity from request
// headers, DefaultTenant when absent.
func TenantFromHeader(h http.Header) string {
	return sanitizeTenant(h.Get(TenantHeader))
}

// InjectTenant writes the tenant carried by ctx into outgoing request
// headers — the cluster client calls this so shard RPCs stay
// attributable to the originating tenant.
func InjectTenant(ctx context.Context, h http.Header) {
	if t := TenantFromContext(ctx); t != "" {
		h.Set(TenantHeader, t)
	}
}

// sanitizeTenant bounds a caller-supplied tenant name: length-capped and
// restricted to printable non-space characters, so hostile headers cannot
// smuggle junk into metric labels or log lines.
func sanitizeTenant(name string) string {
	name = strings.TrimSpace(name)
	if name == "" {
		return DefaultTenant
	}
	if len(name) > 64 {
		name = name[:64]
	}
	var b strings.Builder
	for _, r := range name {
		if r <= ' ' || r == 0x7f || r == '"' {
			b.WriteByte('_')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WriteRetryAfter sets the Retry-After header from a duration, rounded
// up to whole seconds (the header's only portable unit) with a 1s floor.
// Shared by every shed path — the admission 429/503s and the streaming
// backpressure 429s — so clients see one consistent hint format.
func WriteRetryAfter(h http.Header, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	h.Set("Retry-After", strconv.FormatInt(secs, 10))
}

// RetryAfterFromError extracts the retry hint carried by a typed
// backpressure error, falling back when the error carries none.
func RetryAfterFromError(err error, fallback time.Duration) time.Duration {
	var bp *core.BackpressureError
	if errors.As(err, &bp) && bp.RetryAfter > 0 {
		return bp.RetryAfter
	}
	return fallback
}

// LabelSet bounds a metric label's value set: the first Max distinct
// names keep their identity, later ones collapse to "other". Shard nodes
// use it to keep tenant-labelled series finite without knowing the
// coordinator's tenant configuration.
type LabelSet struct {
	mu    sync.Mutex
	max   int
	known map[string]struct{}
}

// NewLabelSet builds a label set admitting max distinct values.
func NewLabelSet(max int) *LabelSet {
	return &LabelSet{max: max, known: make(map[string]struct{})}
}

// Label returns name when it is (or can still become) a tracked value,
// "other" once the set is full.
func (s *LabelSet) Label(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.known[name]; ok {
		return name
	}
	if len(s.known) < s.max {
		s.known[name] = struct{}{}
		return name
	}
	return "other"
}
