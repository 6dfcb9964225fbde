package segment_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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

// TestDecodeRowsParity: over every chunk layout a reader can meet — v3
// packed column streams, v3 row-text fallback chunks, v2 row-major chunks —
// DecodeRows over ChunkBytes equals parsing ChunkData's wire text and
// projecting, for every column subset tried, and reports the wire share
// ChunkColumns reports for the same columns.
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
					rows, wire, err := r.DecodeRows(i, inflated, typedSchema, cols)
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
	if _, _, err := r.DecodeRows(0, good[:len(good)/2], typedSchema, nil); err == nil {
		t.Error("a truncated chunk decoded")
	}
	if _, _, err := r.DecodeRows(0, good, telco.NMSSchema, nil); err == nil {
		t.Error("a chunk decoded under a schema of another width")
	}
	if _, _, err := r.DecodeRows(7, good, typedSchema, nil); err == nil {
		t.Error("a chunk index past the directory decoded")
	}
	// Column 1 (dict) under an integer kind: its entries do not parse.
	if _, _, err := r.DecodeRows(0, good, swapKind(typedSchema, 1, telco.KindInt), []int{1}); err == nil ||
		!strings.Contains(err.Error(), "parse int") {
		t.Errorf("category column decoded as integers: %v", err)
	}
}

func swapKind(s *telco.Schema, col int, k telco.Kind) *telco.Schema {
	fields := append([]telco.Field(nil), s.Fields...)
	fields[col].Kind = k
	return telco.MustSchema(s.Name, fields)
}

// TestProjectedDecodeAllocations guards the point of narrow rows: decoding
// 4 columns of one 200-attribute CDR chunk allocates in proportion to
// rows × projected columns — a handful of allocations and a few times the
// decoded values' bytes — where the full-width text path built an 8 KB
// record and a 200-way split per row. Held for both v3 chunk layouts.
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
	valueBytes := float64(tab.Len()*len(cols)) * float64(reflect.TypeOf(telco.Value{}).Size())
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
		decode := func() {
			rows, _, err := r.DecodeRows(0, inflated, telco.CDRSchema, cols)
			if err != nil || len(rows) != tab.Len() {
				t.Fatalf("%s: %d rows, err %v", name, len(rows), err)
			}
		}
		// A constant number of slabs per chunk — the values, the records, one
		// string per stream — and nothing per row.
		allocs := testing.AllocsPerRun(10, decode)
		if allocs > 64 {
			t.Errorf("%s: %.0f allocations for %d rows × %d columns, want a constant (≤ 64) per chunk",
				name, allocs, tab.Len(), len(cols))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		decode()
		runtime.ReadMemStats(&m1)
		got := float64(m1.TotalAlloc - m0.TotalAlloc)
		// The row-text layout also copies the chunk's text once.
		if limit := 2*valueBytes + 2*float64(len(inflated)); got > limit {
			t.Errorf("%s: decode allocated %.0f bytes for %.0f bytes of values (limit %.0f): not O(rows × projected columns)",
				name, got, valueBytes, limit)
		}
		if full := float64(tab.Len()*telco.NumCDRAttrs) * float64(reflect.TypeOf(telco.Value{}).Size()); got*8 > full {
			t.Errorf("%s: decode allocated %.0f bytes, within 8× of a full-width table's %.0f", name, got, full)
		}
		t.Logf("%s: %d rows, %.0f allocations, %.0f bytes (values %.0f, full-width %d)",
			name, tab.Len(), allocs, got, valueBytes, tab.Len()*telco.NumCDRAttrs*40)
	}
}
