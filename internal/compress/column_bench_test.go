package compress

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"spate/internal/telco"
)

// decodeRows is the row count of the decode fixtures: about a sealed
// chunk's worth of rows.
const decodeRows = 4096

// decodeCase is one packed column stream of decodeRows rows and the kind it
// decodes into.
type decodeCase struct {
	name string
	tag  byte
	kind telco.Kind
	data []byte
}

// decodeCases packs one stream per (codec, kind) from seeded values shaped
// like a leaf's: spread counters, floats with two decimals, timestamps a few
// seconds apart, identifiers and categories, with runs where a dictionary
// would see them.
func decodeCases(tb testing.TB) []decodeCase {
	rng := rand.New(rand.NewSource(41))
	base := time.Date(2016, 1, 18, 23, 50, 0, 0, time.UTC)
	gen := func(f func(i int) string) []string {
		vals := make([]string, decodeRows)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	runs := func(f func() string) []string { // a new value every 1 to 8 rows
		vals := make([]string, 0, decodeRows)
		for len(vals) < decodeRows {
			v := f()
			for n := 1 + rng.Intn(8); n > 0 && len(vals) < decodeRows; n-- {
				vals = append(vals, v)
			}
		}
		return vals
	}
	at := base
	clock := func(int) string {
		at = at.Add(time.Duration(rng.Intn(5)) * time.Second)
		return at.Format(telco.TimeLayout)
	}
	spread := func(int) string { return strconv.Itoa(rng.Intn(1000000)) }
	type stream struct {
		tag  byte
		kind telco.Kind
		vals []string
	}
	streams := []stream{
		{ColPlain, telco.KindInt, gen(spread)},
		{ColPlain, telco.KindFloat, gen(func(int) string { return strconv.FormatFloat(float64(rng.Intn(100000))/100, 'f', -1, 64) })},
		{ColPlain, telco.KindTime, gen(clock)},
		{ColPlain, telco.KindString, gen(func(i int) string { return "u-" + strconv.Itoa(i) })},
		{ColDict, telco.KindInt, runs(func() string { return strconv.Itoa(rng.Intn(16)) })},
		{ColDict, telco.KindFloat, runs(func() string { return strconv.FormatFloat(float64(rng.Intn(16))/4, 'f', -1, 64) })},
		{ColDict, telco.KindTime, runs(func() string { return clock(0) })},
		{ColDict, telco.KindString, runs(func() string { return []string{"VOICE", "SMS", "DATA", ""}[rng.Intn(4)] })},
		{ColDelta, telco.KindInt, gen(spread)},
		{ColDelta, telco.KindFloat, gen(spread)},
		{ColDelta, telco.KindTime, gen(clock)},
		{ColDelta, telco.KindString, gen(func(int) string { return strconv.Itoa(1300000000 + rng.Intn(10000)) })},
	}
	out := make([]decodeCase, len(streams))
	for i, s := range streams {
		data, err := EncodeColumn(nil, s.tag, s.vals)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = decodeCase{ColumnTagName(s.tag) + "/" + s.kind.String(), s.tag, s.kind, data}
	}
	return out
}

// TestDecodeColumnBatchAllocations: once a column has decoded a stream, it
// decodes one like it again without allocating, counting wire bytes or not —
// the arrays, codes, runs, scratch and arena it needs are its own, kept
// across resets.
func TestDecodeColumnBatchAllocations(t *testing.T) {
	for _, tc := range decodeCases(t) {
		schema := telco.MustSchema("A", []telco.Field{{Name: "c", Kind: tc.kind}})
		for _, wire := range []bool{false, true} {
			var batch telco.Batch
			decode := func() {
				batch.Reset(schema, nil, decodeRows)
				if _, err := DecodeColumnBatch(&batch.Cols[0], tc.tag, tc.data, decodeRows, wire); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
			decode()
			if allocs := testing.AllocsPerRun(10, decode); allocs != 0 {
				t.Errorf("%s (wire %v): %.0f allocations a decode into a reused column, want none", tc.name, wire, allocs)
			}
		}
	}
}

// BenchmarkDecodeColumnBatch decodes each (codec, kind) stream into one
// reused column, as a scan worker's batch is, reporting ns per row; the
// wire-bytes count a chunk's first visit adds runs as its own sub-benchmark.
func BenchmarkDecodeColumnBatch(b *testing.B) {
	for _, tc := range decodeCases(b) {
		schema := telco.MustSchema("B", []telco.Field{{Name: "c", Kind: tc.kind}})
		for _, wire := range []bool{false, true} {
			name := tc.name
			if wire {
				name += "/wire"
			}
			b.Run(name, func(b *testing.B) {
				var batch telco.Batch
				b.SetBytes(int64(len(tc.data)))
				for i := 0; i < b.N; i++ {
					batch.Reset(schema, nil, decodeRows)
					if _, err := DecodeColumnBatch(&batch.Cols[0], tc.tag, tc.data, decodeRows, wire); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*decodeRows), "ns/row")
			})
		}
	}
}
