package segment_test

import (
	"bytes"
	"sort"
	"testing"

	"spate/internal/compress"
	"spate/internal/gen"
	"spate/internal/segment"
	"spate/internal/telco"
)

// layoutTable is one generator table in the order ingest stores it: rows
// sorted by timestamp.
func layoutTable(t *testing.T, name string) *telco.Table {
	t.Helper()
	cfg := gen.DefaultConfig(0.1)
	cfg.CDRPerEpoch = 6000
	g := gen.New(cfg)
	e := telco.EpochOf(cfg.Start.Add(11 * telco.EpochDuration * 2)) // 11:00, a busy hour
	tab := g.NMSTable(e)
	if name == "CDR" {
		tab = g.CDRTable(e)
	}
	ts := tab.Schema.FieldIndex(telco.AttrTS)
	sort.SliceStable(tab.Rows, func(i, j int) bool { return tab.Rows[i][ts].Time().Before(tab.Rows[j][ts].Time()) })
	return tab
}

// layoutSizes compresses one chunk's rows the three ways the column writer
// used to try — its packed column streams, every column plain, the
// row-major wire text — and returns the payload sizes.
func layoutSizes(t *testing.T, c compress.Codec, rows []telco.Record) (packed, plain, rowText int) {
	t.Helper()
	ncols := len(rows[0])
	w := segment.NewColumnWriter(c, 1<<30, ncols) // one chunk
	cols := make([][]string, ncols)
	var wire bytes.Buffer
	for _, r := range rows {
		fields := r.AppendFields(nil)
		if err := w.AppendRowFields(fields, segment.RowMeta{}); err != nil {
			t.Fatal(err)
		}
		for i, f := range fields {
			cols[i] = append(cols[i], f)
		}
		wire.WriteString(r.Line())
		wire.WriteByte('\n')
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() != 1 || r.Chunks()[0].RowMajor() {
		t.Fatalf("%d chunks, row-major %v: want one packed chunk", r.NumChunks(), r.Chunks()[0].RowMajor())
	}
	var allPlain []byte
	for _, vals := range cols {
		if allPlain, err = compress.EncodeColumn(allPlain, compress.ColPlain, vals); err != nil {
			t.Fatal(err)
		}
	}
	return int(r.Chunks()[0].Len), len(c.Compress(nil, allPlain)), len(c.Compress(nil, wire.Bytes()))
}

// TestSingleLayoutGuard stands in for the trial the column writer no longer
// runs. It used to block-compress every chunk three times — packed column
// streams, all columns plain, row-major text — and keep the smallest; now it
// packs once, by the per-column statistics alone. On generator CDR and NMS
// tables cut at the chunk sizes the benchmark traces produce (~100 and ~200
// rows at small scales, ~2 000 at large), the one packed layout must stay
// within 0.5 % of what the best of the three would have stored, under gzip,
// the codec SPATE ships with.
//
// The bound is waived, not met, for one cut: NMS chunks under 200 rows are
// held to 3 %. A hundred rows of the 8-column NMS table deflate to ~900 bytes,
// and at that size one Huffman table over one digit alphabet (every column
// plain) beats anything a per-column rule can pick; measured 1.025, down from
// 1.035 before low-cardinality counts in no order went to delta, and 1.000
// again at 200 rows. Under zstd, whose entropy stage is not one table a block,
// packed is the best of the three at every cut. No trace the generator writes
// cuts NMS that small (it carries ~12 NMS rows per CDR row), and a per-chunk
// rule that turned tiny gzip chunks all-plain would cost zstd stores 14–45 %
// on the same chunks (EXPERIMENTS.md). The ratios under zstd are logged for
// EXPERIMENTS.md.
func TestSingleLayoutGuard(t *testing.T) {
	tables := map[string]*telco.Table{"CDR": layoutTable(t, "CDR"), "NMS": layoutTable(t, "NMS")}
	codecs := []struct {
		name  string
		c     compress.Codec
		bound float64 // 0: logged only
	}{
		{"gzip", codec(t, "gzip"), 1.005},
		{"zstd", codec(t, "zstd"), 0},
	}
	for _, name := range []string{"CDR", "NMS"} {
		tab := tables[name]
		for _, n := range []int{100, 200, 2000} {
			const chunks = 3
			if tab.Len() < chunks*n {
				t.Fatalf("%s: %d rows, want %d", name, tab.Len(), chunks*n)
			}
			for _, cc := range codecs {
				var packed, best, plain, rowText int
				for k := 0; k < chunks; k++ {
					p, a, r := layoutSizes(t, cc.c, tab.Rows[k*n:(k+1)*n])
					packed, plain, rowText = packed+p, plain+a, rowText+r
					best += min(p, a, r)
				}
				ratio := float64(packed) / float64(best)
				t.Logf("%s %4d rows/chunk %-9s packed %7d  all-plain %7d  row-text %7d  best-of-3 %7d  packed/best %.4f",
					name, n, cc.name, packed, plain, rowText, best, ratio)
				bound := cc.bound
				if bound > 0 && name == "NMS" && n < 200 {
					bound = 1.03
				}
				if bound > 0 && ratio > bound {
					t.Errorf("%s at %d rows/chunk under %s: the single packed layout stores %.4f× the best of three, over %.3f",
						name, n, cc.name, ratio, bound)
				}
			}
		}
	}
}
