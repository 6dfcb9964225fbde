package core

import (
	"testing"

	"spate/internal/obs"
)

// TestInflatedBytesCeilings gates the leaf bytes one cold run of each
// scenario of BenchmarkExploreWindowPruning, BenchmarkColumnarScan and
// BenchmarkParallelScan inflates (the spate_leaf_decompressed_bytes_total
// delta). The counts depend only on the generated data and the leaf
// format, not on the machine, so each ceiling is the exact committed
// count: a pruning, layout or pushdown regression that inflates one byte
// more fails here. A change that legitimately moves a count edits its
// constant.
func TestInflatedBytesCeilings(t *testing.T) {
	type scenario struct {
		name    string
		ceiling int64
		// store builds the scenario's engine and returns its registry and
		// the operation to measure, which reports how much it matched.
		store func(testing.TB) (*obs.Registry, func() (int, error))
	}
	pruning := func(chunkSize int) func(testing.TB) (*obs.Registry, func() (int, error)) {
		return func(tb testing.TB) (*obs.Registry, func() (int, error)) {
			e, reg, q := pruningStore(tb, chunkSize, -1)
			return reg, func() (int, error) {
				res, err := e.Explore(q)
				if err != nil {
					return 0, err
				}
				return res.Rows["CDR"].Len(), nil
			}
		}
	}
	parallel := func(workers int) func(testing.TB) (*obs.Registry, func() (int, error)) {
		return func(tb testing.TB) (*obs.Registry, func() (int, error)) {
			// The benchmark's read throttle changes time, not bytes.
			e, reg, w := parallelStore(tb, workers, 0)
			return reg, func() (int, error) { return countRows(e, w, nil, nil) }
		}
	}
	scenarios := []scenario{
		{"ExploreWindowPruning/segment-nocache", 47087, pruning(4 << 10)},
		{"ExploreWindowPruning/legacy-nocache", 105058, pruning(-1)},
		{"ParallelScan/workers=1", 1197964, parallel(1)},
		{"ParallelScan/workers=8", 1197964, parallel(8)},
	}
	columnarCeilings := map[string]int64{
		"v2-selective": 400101,
		"v3-selective": 24916,
		"v3-fullrow":   400101,
		"v3-aggregate": 2209,
	}
	for _, s := range columnarScans {
		ceiling, ok := columnarCeilings[s.name]
		if !ok {
			t.Fatalf("columnar scan %s has no ceiling", s.name)
		}
		scenarios = append(scenarios, scenario{"ColumnarScan/" + s.name, ceiling,
			func(tb testing.TB) (*obs.Registry, func() (int, error)) {
				e, reg, w := columnarStore(tb, s.version)
				return reg, func() (int, error) { return s.run(e, w) }
			}})
	}

	got := map[string]int64{}
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			reg, op := s.store(t)
			before := inflatedBytes(reg)
			n, err := op()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("scenario matched nothing")
			}
			got[s.name] = inflatedBytes(reg) - before
			if got[s.name] > s.ceiling {
				t.Errorf("inflated %d bytes, ceiling %d", got[s.name], s.ceiling)
			} else if got[s.name] < s.ceiling {
				t.Logf("inflated %d bytes, under the ceiling %d: lower it", got[s.name], s.ceiling)
			}
		})
	}
	if w1, w8 := got["ParallelScan/workers=1"], got["ParallelScan/workers=8"]; w1 != w8 {
		t.Errorf("workers=1 inflated %d bytes, workers=8 %d: the worker count changed what was read", w1, w8)
	}

	// With the chunk cache on, the cold run inflates what the pruned
	// window needs and a repeat is served from the cache entirely.
	t.Run("ExploreWindowPruning/segment-warm", func(t *testing.T) {
		e, reg, q := pruningStore(t, 4<<10, 0)
		explore := func() int64 {
			t.Helper()
			before := inflatedBytes(reg)
			e.cache.Clear() // the result cache would answer the repeat
			if _, err := e.Explore(q); err != nil {
				t.Fatal(err)
			}
			return inflatedBytes(reg) - before
		}
		if cold := explore(); cold == 0 || cold > 47087 {
			t.Errorf("cold run inflated %d bytes, want 1..47087", cold)
		}
		if warm := explore(); warm != 0 {
			t.Errorf("warm repeat inflated %d bytes, want 0", warm)
		}
	})
}
