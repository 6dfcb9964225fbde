package cluster

import (
	"testing"
	"time"

	"spate/internal/obs"
)

// TestConfigDefaultsIdempotent: defaulting a defaulted config changes
// nothing — in particular a negative Retries keeps meaning "no retries"
// however many constructors default it on the way.
func TestConfigDefaultsIdempotent(t *testing.T) {
	for name, c := range map[string]Config{
		"zero":     {},
		"negative": {Shards: -1, Replicas: -2, Retries: -1, HedgeDelay: -time.Second, Theta: -0.5},
		"explicit": {
			Shards: 3, Replicas: 2, BlockEpochs: 24, SpatialSplit: 2,
			ExploreTimeout: time.Second, IngestTimeout: time.Minute, HedgeDelay: 50 * time.Millisecond,
			Retries: 5, RetryBackoff: time.Millisecond, Theta: 0.1,
			Obs: obs.NewRegistry(), Tracer: obs.NewTracer(8),
		},
		"noop registry": {Obs: obs.NewNoop(), Tracer: obs.NewTracer(8)},
	} {
		once := c.withDefaults()
		if twice := once.withDefaults(); twice != once {
			t.Errorf("%s: defaulted twice %+v, once %+v", name, twice, once)
		}
	}
	if r := (Config{Retries: -1}).withDefaults().withDefaults().Retries; r >= 0 {
		t.Errorf("Retries -1 defaulted twice = %d, want negative (no retries)", r)
	}
}
