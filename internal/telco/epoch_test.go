package telco

import (
	"math/rand"
	"testing"
	"time"
)

// TestEpochOfContainsProperty: every time from year 1 to 9999 lies in the
// epoch EpochOf names, before 1970 as after it — unaligned times, the
// instants on either side of an epoch boundary and sub-second offsets.
func TestEpochOfContainsProperty(t *testing.T) {
	lo := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	hi := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
	check := func(at time.Time) {
		t.Helper()
		if e := EpochOf(at); !e.Contains(at) {
			t.Fatalf("EpochOf(%s) = epoch from %s to %s, which does not contain it", at.Format(time.RFC3339Nano), e.Start(), e.End())
		}
	}
	for _, at := range []time.Time{
		time.Date(1969, 12, 31, 23, 45, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1600, 3, 1, 10, 15, 0, 0, time.UTC),
		time.Date(1600, 3, 1, 10, 30, 0, 0, time.UTC),
		time.Unix(lo, 0).UTC(),
		time.Unix(hi, 0).UTC(),
	} {
		check(at)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		sec := lo + rng.Int63n(hi-lo+1)
		switch i % 4 {
		case 1: // an epoch boundary
			sec -= sec % 1800
		case 2: // the second before one
			sec -= sec%1800 + 1
		}
		check(time.Unix(sec, rng.Int63n(1e9)).UTC())
	}
}

// TestEpochOfBeforeUnixEpoch pins the epochs of two unaligned times before
// 1970, which truncating division moved into the next epoch.
func TestEpochOfBeforeUnixEpoch(t *testing.T) {
	for _, tc := range []struct{ at, start time.Time }{
		{time.Date(1969, 12, 31, 23, 45, 0, 0, time.UTC), time.Date(1969, 12, 31, 23, 30, 0, 0, time.UTC)},
		{time.Date(1600, 3, 1, 10, 15, 0, 0, time.UTC), time.Date(1600, 3, 1, 10, 0, 0, 0, time.UTC)},
	} {
		if got := EpochOf(tc.at).Start(); !got.Equal(tc.start) {
			t.Errorf("EpochOf(%s) starts at %s, want %s", tc.at, got, tc.start)
		}
	}
}
