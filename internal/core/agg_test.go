package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// TestGroupOrdinalsMatchAddRow: integer group keys — cell ids inside the
// dense table, its edges, negative keys, keys spread wider than it, sparse
// keys far beyond it, and nulls — fold into exactly the partials the
// row-at-a-time definition (scanspec.Spec.AddRow) gives, in strictly
// increasing key order, whether one accumulator folds every batch or two
// fold alternate batches and their partials merge. COUNT, SUM, MIN and MAX
// run over an integer column that holds nulls in some batches and none in
// others, one that never does, and a time column, so both the null-free
// loops and the general one fold; COUNT, MIN and MAX also run over a string
// column whose nulls are blank entries.
func TestGroupOrdinalsMatchAddRow(t *testing.T) {
	schema := telco.MustSchema("G", []telco.Field{
		{Name: "ts", Kind: telco.KindTime},
		{Name: "k", Kind: telco.KindInt},
		{Name: "v", Kind: telco.KindInt},
		{Name: "w", Kind: telco.KindInt},
		{Name: "at", Kind: telco.KindTime},
		{Name: "s", Kind: telco.KindString},
	})
	spec := &ScanSpec{GroupBy: "k", Aggs: []scanspec.Agg{
		{Fn: "COUNT"},
		{Fn: "COUNT", Col: "v"}, {Fn: "SUM", Col: "v"}, {Fn: "MIN", Col: "v"}, {Fn: "MAX", Col: "v"},
		{Fn: "COUNT", Col: "w"}, {Fn: "SUM", Col: "w"}, {Fn: "MIN", Col: "w"}, {Fn: "MAX", Col: "w"},
		{Fn: "COUNT", Col: "at"}, {Fn: "MIN", Col: "at"}, {Fn: "MAX", Col: "at"},
		{Fn: "COUNT", Col: "s"}, {Fn: "MIN", Col: "s"}, {Fn: "MAX", Col: "s"},
	}}
	w := telco.NewTimeRange(time.Unix(0, 0), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC))
	ts := telco.Time(time.Date(2016, 1, 18, 0, 0, 0, 0, time.UTC))
	rng := rand.New(rand.NewSource(39))
	draws := []func() telco.Value{
		func() telco.Value { return telco.Int(1000 + rng.Int63n(50)) },
		func() telco.Value { return telco.Int([]int64{0, denseKeys - 1, denseKeys}[rng.Intn(3)]) },
		func() telco.Value { return telco.Int(-1 - rng.Int63n(100)) },
		func() telco.Value { return telco.Int(rng.Int63n(1 << 20)) },
		func() telco.Value { return telco.Int(rng.Int63n(4) << 40) },
		func() telco.Value { return telco.Int(math.MinInt64) },
		func() telco.Value { return telco.Null },
	}
	newAcc := func() *aggAcc {
		a, err := newAggAcc(spec, schema, newTimeFilter(w, spec))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	loops := map[bool]int{} // batches folded with nulls in v, and without
	for trial := 0; trial < 30; trial++ {
		byKey := map[string]*scanspec.Partial{}
		one, even, odd := newAcc(), newAcc(), newAcc()
		var b telco.Batch
		for nb := 0; nb < 1+rng.Intn(4); nb++ {
			var rows []telco.Record
			nulls := rng.Intn(2) == 0
			for n := rng.Intn(300); n > 0; n-- {
				k, v := draws[rng.Intn(len(draws))](), telco.Int(rng.Int63n(2000)-1000)
				if nulls && rng.Intn(10) == 0 {
					v = telco.Null
				}
				x := telco.Int(rng.Int63() - rng.Int63())
				at := telco.Time(time.Unix(1453075200+rng.Int63n(86400), 0))
				if nulls && rng.Intn(10) == 0 {
					at = telco.Null
				}
				str := telco.String([]string{"a", "mm", "zz"}[rng.Intn(3)])
				if nulls && rng.Intn(10) == 0 {
					str = telco.Null
				}
				rows = append(rows, telco.Record{ts, k, v, x, at, str})
				p := byKey[k.Format()]
				if p == nil {
					p = spec.NewPartial(k)
					byKey[k.Format()] = p
				}
				spec.AddRow(p, []telco.Value{telco.Null, v, v, v, v, x, x, x, x, at, at, at, str, str, str})
			}
			loops[nulls]++
			tab := &telco.Table{Schema: schema, Rows: rows}
			one.foldMem(&b, tab)
			if nb%2 == 0 {
				even.foldMem(&b, tab)
			} else {
				odd.foldMem(&b, tab)
			}
		}
		want := []scanspec.Partial{}
		for _, p := range byKey {
			want = append(want, *p)
		}
		slices.SortFunc(want, func(x, y scanspec.Partial) int { return strings.Compare(x.Key, y.Key) })
		if got := one.partials(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: one accumulator:\n got %+v\nwant %+v", trial, got, want)
		}
		if got := scanspec.Merge(even.partials(), odd.partials()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: two accumulators merged:\n got %+v\nwant %+v", trial, got, want)
		}
	}
	if loops[true] == 0 || loops[false] == 0 {
		t.Fatalf("batches with nulls %d, without %d: both loops must fold", loops[true], loops[false])
	}
}

// BenchmarkGroupedPartials folds T3's shape at the benchmark's scan-cold
// scale (0.1) — SUM of two counters per cell over six epochs in which 1130
// cells report five times each — and renders the partials: the grouped
// pushdown's per-row ordinal lookup and its per-group ordering.
func BenchmarkGroupedPartials(b *testing.B) {
	spec := &ScanSpec{GroupBy: telco.AttrCellID, Aggs: []scanspec.Agg{
		{Fn: "SUM", Col: "drop_calls"}, {Fn: "SUM", Col: "call_attempts"},
	}}
	w := telco.NewTimeRange(time.Unix(0, 0), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC))
	rng := rand.New(rand.NewSource(3))
	lay, err := newAggAcc(spec, telco.NMSSchema, newTimeFilter(w, spec))
	if err != nil {
		b.Fatal(err)
	}
	const cells = 1130
	batches := make([]telco.Batch, 6)
	for e := range batches {
		rows := make([]telco.Record, 5*cells)
		for i := range rows {
			r := make(telco.Record, telco.NMSSchema.NumFields())
			r[1], r[2], r[3] = telco.Int(1000+rng.Int63n(cells)), telco.Int(rng.Int63n(5)), telco.Int(rng.Int63n(100))
			rows[i] = r
		}
		batches[e].SetRows(lay.lay.full, lay.lay.cols, rows, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := newAggAcc(spec, telco.NMSSchema, newTimeFilter(w, spec))
		if err != nil {
			b.Fatal(err)
		}
		for e := range batches {
			a.fold(&batches[e], &a.lay)
		}
		if parts := a.partials(); len(parts) != cells {
			b.Fatalf("%d groups", len(parts))
		}
	}
}
