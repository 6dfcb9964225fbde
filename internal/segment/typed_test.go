package segment_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"spate/internal/compress"
	"spate/internal/gen"
	"spate/internal/segment"
	"spate/internal/telco"
)

var typedSchema = telco.MustSchema("T", []telco.Field{
	{Name: "ts", Kind: telco.KindTime},
	{Name: "kind", Kind: telco.KindString},
	{Name: "who", Kind: telco.KindString},
	{Name: "n", Kind: telco.KindInt},
	{Name: "ratio", Kind: telco.KindFloat},
	{Name: "note", Kind: telco.KindString, Optional: true},
})

// typedTable builds seeded rows that drive every column codec: a monotone
// timestamp and a counter (delta), a three-value category (dict), unique
// text with escapes (plain), floats, and a mostly-blank optional column.
func typedTable(seed int64, n int) *telco.Table {
	rng := rand.New(rand.NewSource(seed))
	tab := telco.NewTable(typedSchema)
	base := time.Date(2016, 1, 18, 9, 30, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		note := telco.Null
		if rng.Intn(6) == 0 {
			note = telco.String([]string{"a|b", `c\d`, "two\nlines", "ok"}[rng.Intn(4)])
		}
		ratio := telco.Float(rng.NormFloat64())
		if rng.Intn(10) == 0 {
			ratio = telco.Null
		}
		tab.Append(telco.Record{
			telco.Time(base.Add(time.Duration(i) * 7 * time.Second)),
			telco.String([]string{"VOICE", "SMS", "DATA"}[rng.Intn(3)]),
			telco.String(fmt.Sprintf("u-%d-%x", i, rng.Uint32())),
			telco.Int(int64(i*i) - 500),
			ratio,
			note,
		})
	}
	return tab
}

// decodeRows drives the batch decoder the way a row scan does: chunk i's
// inflated bytes decode into one reused batch, whose rows then materialize
// as records.
func decodeRows(r *segment.Reader, i int, data []byte, schema *telco.Schema, cols []int) ([]telco.Record, int64, error) {
	wire, err := r.DecodeBatch(i, data, schema, cols, &rowsBatch, true)
	if err != nil {
		return nil, 0, err
	}
	return rowsBatch.AppendRecords(nil), wire, nil
}

var rowsBatch telco.Batch

// TestDecodeRowsParity: over every chunk layout a reader can meet — v3
// packed column streams, v3 row-text fallback chunks, v2 row-major chunks —
// the batch decoded from ChunkBytes, materialized, equals parsing
// ChunkData's wire text and projecting, for every column subset tried, and
// reports the wire share ChunkColumns reports for the same columns.
func TestDecodeRowsParity(t *testing.T) {
	tab := typedTable(5, 700)
	build := map[string]func(t *testing.T) ([]byte, compress.Codec){
		"v3-columnar": func(t *testing.T) ([]byte, compress.Codec) {
			c := codec(t, "gzip")
			w := segment.NewColumnWriter(c, 4<<10, typedSchema.NumFields())
			for _, r := range tab.Rows {
				if err := w.AppendRowFields(r.AppendFields(nil), segment.RowMeta{}); err != nil {
					t.Fatal(err)
				}
			}
			data, _, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return data, c
		},
		"v3-rowtext": func(t *testing.T) ([]byte, compress.Codec) {
			c := codec(t, "gzip")
			w := segment.NewColumnWriter(c, 4<<10, typedSchema.NumFields())
			for _, r := range tab.Rows {
				if err := w.AppendRowFields(r.AppendFields(nil), segment.RowMeta{}); err != nil {
					t.Fatal(err)
				}
			}
			data, _, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return rowTextLayout(t, data, c), c
		},
		"v2": func(t *testing.T) ([]byte, compress.Codec) {
			c := codec(t, "gzip")
			w := segment.NewWriter(c, 4<<10)
			for _, r := range tab.Rows {
				if err := w.AppendRow([]byte(r.Line()+"\n"), segment.RowMeta{}); err != nil {
					t.Fatal(err)
				}
			}
			data, _, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return data, c
		},
	}
	subsets := [][]int{nil, {0}, {3}, {0, 3}, {1, 2, 5}, {0, 1, 2, 3, 4, 5}, {4, 5}, {}}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			data, c := mk(t)
			r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
			if err != nil {
				t.Fatal(err)
			}
			if r.NumChunks() < 3 {
				t.Fatalf("only %d chunks", r.NumChunks())
			}
			rowText := 0
			total := 0
			for i, ch := range r.Chunks() {
				if ch.RowMajor() {
					rowText++
				}
				text, err := r.ChunkData(i)
				if err != nil {
					t.Fatal(err)
				}
				want, err := telco.ReadTable(typedSchema, bytes.NewReader(text))
				if err != nil {
					t.Fatal(err)
				}
				inflated, err := r.ChunkBytes(i)
				if err != nil {
					t.Fatal(err)
				}
				for _, cols := range subsets {
					rows, wire, err := decodeRows(r, i, inflated, typedSchema, cols)
					if err != nil {
						t.Fatalf("chunk %d cols %v: %v", i, cols, err)
					}
					proj := telco.ProjectRows(want.Rows, cols)
					if len(rows) != len(proj) {
						t.Fatalf("chunk %d cols %v: %d rows, want %d", i, cols, len(rows), len(proj))
					}
					for j := range rows {
						if len(rows[j]) != len(proj[j]) {
							t.Fatalf("chunk %d cols %v row %d: width %d, want %d", i, cols, j, len(rows[j]), len(proj[j]))
						}
						for k := range rows[j] {
							if g, w := rows[j][k], proj[j][k]; g.Kind() != w.Kind() || !g.Equal(w) {
								t.Fatalf("chunk %d cols %v row %d col %d: %v %q, want %v %q",
									i, cols, j, k, g.Kind(), g.Format(), w.Kind(), w.Format())
							}
						}
					}
					if cols == nil && wire != ch.ULen {
						t.Errorf("chunk %d: full decode wire = %d, ULen = %d", i, wire, ch.ULen)
					}
					if r.Columnar() && len(cols) > 0 {
						_, wantWire, err := r.ChunkColumns(i, cols)
						if err != nil {
							t.Fatal(err)
						}
						if wire != wantWire {
							t.Errorf("chunk %d cols %v: wire = %d, ChunkColumns says %d", i, cols, wire, wantWire)
						}
					}
				}
				total += len(want.Rows)
			}
			if total != len(tab.Rows) {
				t.Fatalf("chunks hold %d rows, table has %d", total, len(tab.Rows))
			}
			if name == "v3-rowtext" && rowText == 0 {
				t.Fatal("no chunk took the row-text layout")
			}
			if name == "v3-columnar" && rowText == r.NumChunks() {
				t.Fatal("every chunk took the row-text layout")
			}
		})
	}
}

// TestDecodeRowsCorruptFailsLoudly: inflated bytes that do not match the
// chunk directory — a truncated stream, a flipped run, a short text — fail
// as errors, never as a short or shifted table.
func TestDecodeRowsCorruptFailsLoudly(t *testing.T) {
	tab := typedTable(9, 200)
	c := codec(t, "gzip")
	w := segment.NewColumnWriter(c, 1<<20, typedSchema.NumFields())
	for _, r := range tab.Rows {
		if err := w.AppendRowFields(r.AppendFields(nil), segment.RowMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.ChunkBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeRows(r, 0, good[:len(good)/2], typedSchema, nil); err == nil {
		t.Error("a truncated chunk decoded")
	}
	if _, _, err := decodeRows(r, 0, good, telco.NMSSchema, nil); err == nil {
		t.Error("a chunk decoded under a schema of another width")
	}
	if _, _, err := decodeRows(r, 7, good, typedSchema, nil); err == nil {
		t.Error("a chunk index past the directory decoded")
	}
	// Column 1 (dict) under an integer kind: its entries do not parse.
	if _, _, err := decodeRows(r, 0, good, swapKind(typedSchema, 1, telco.KindInt), []int{1}); err == nil ||
		!strings.Contains(err.Error(), "parse int") {
		t.Errorf("category column decoded as integers: %v", err)
	}
}

func swapKind(s *telco.Schema, col int, k telco.Kind) *telco.Schema {
	fields := append([]telco.Field(nil), s.Fields...)
	fields[col].Kind = k
	return telco.MustSchema(s.Name, fields)
}

// TestProjectedDecodeAllocations guards the point of column batches:
// decoding 4 columns of one 200-attribute CDR chunk (1 586 rows) into a
// batch allocates pointer-free arrays in proportion to rows × projected
// columns the first time — 8 bytes a value and a selection slot a row, where
// the typed rows before them cost a 40-byte telco.Value each (16 allocations,
// 413 KB) — and nothing at all once the batch is warm, which is how a scan
// worker meets every chunk after its first. The row-text layout, which no
// writer produces any more, still pays for the records its text parses into
// on the way through the row adapter.
func TestProjectedDecodeAllocations(t *testing.T) {
	cfg := gen.DefaultConfig(0.01)
	cfg.CDRPerEpoch = 1500
	tab := gen.New(cfg).CDRTable(telco.EpochOf(cfg.Start.Add(12 * time.Hour)))
	if tab.Len() < 500 {
		t.Fatalf("only %d CDR rows generated", tab.Len())
	}
	cols := []int{ // ts, caller, duration, upflux
		telco.CDRSchema.FieldIndex(telco.AttrTS), telco.CDRSchema.FieldIndex(telco.AttrCaller),
		telco.CDRSchema.FieldIndex(telco.AttrDuration), telco.CDRSchema.FieldIndex(telco.AttrUpflux),
	}
	values := float64(tab.Len() * len(cols))
	c := codec(t, "gzip")
	for _, name := range []string{"columnar", "rowtext"} {
		w := segment.NewColumnWriter(c, 64<<20, telco.NumCDRAttrs) // one chunk
		for _, r := range tab.Rows {
			if err := w.AppendRowFields(r.AppendFields(nil), segment.RowMeta{}); err != nil {
				t.Fatal(err)
			}
		}
		data, _, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if name == "rowtext" {
			data = rowTextLayout(t, data, c)
		}
		r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumChunks() != 1 || r.Chunks()[0].RowMajor() != (name == "rowtext") {
			t.Fatalf("%s: %d chunks, row-major %v", name, r.NumChunks(), r.Chunks()[0].RowMajor())
		}
		inflated, err := r.ChunkBytes(0)
		if err != nil {
			t.Fatal(err)
		}
		var b telco.Batch
		decode := func() {
			if _, err := r.DecodeBatch(0, inflated, telco.CDRSchema, cols, &b, false); err != nil || b.N != tab.Len() {
				t.Fatalf("%s: %d rows, err %v", name, b.N, err)
			}
		}
		allocated := func() float64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			decode()
			runtime.ReadMemStats(&m1)
			return float64(m1.TotalAlloc - m0.TotalAlloc)
		}
		cold := allocated()
		warm := allocated()
		allocs := testing.AllocsPerRun(10, decode)
		t.Logf("%s: %d rows × %d columns: cold %.0f bytes, warm %.0f bytes and %.0f allocations",
			name, tab.Len(), len(cols), cold, warm, allocs)
		if name == "rowtext" {
			// Through the row adapter: the parsed records (a 40-byte value
			// each), one copy of the text, then the batch's arrays.
			if limit := 2*40*values + 2*float64(len(inflated)); warm > limit || allocs > 64 {
				t.Errorf("rowtext: decode allocated %.0f bytes in %.0f allocations (limits %.0f, 64)", warm, allocs, limit)
			}
			continue
		}
		// Arrays of 8-byte elements (a string column's start and end offsets
		// count as one), a 4-byte selection slot a row, null bitmaps, the
		// digits of a delta-coded text column, growth headroom: 147 KB as
		// measured (209 KB under the race detector's allocator), about half
		// of what 40-byte values came to.
		if limit := 36 * values; cold > limit {
			t.Errorf("columnar: a cold batch allocated %.0f bytes for %.0f values (limit %.0f): not pointer-free arrays", cold, values, limit)
		}
		if warm > 1024 || allocs > 0 {
			t.Errorf("columnar: a warm batch allocated %.0f bytes in %.0f allocations, want none", warm, allocs)
		}
	}
}
