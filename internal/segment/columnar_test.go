package segment_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"testing"

	"spate/internal/compress"
	"spate/internal/segment"
	"spate/internal/segment/segmenttest"
)

// identCodec is an identity codec with a length-prefixed frame: packed
// column streams keep their exact sizes, so size assertions see the
// encodings alone.
type identCodec struct{}

func (identCodec) Name() string { return "ident-test" }

func (identCodec) Compress(dst, src []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(src)))]...)
	return append(dst, src...)
}

func (identCodec) Decompress(dst, src []byte) ([]byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 || uint64(len(src)-k) < n {
		return nil, compress.Corruptf("ident-test: truncated")
	}
	return append(dst, src[k:k+int(n)]...), nil
}

// rowTextLayout converts a freshly written v3 segment to the legacy
// row-text chunk layout no writer produces any more.
func rowTextLayout(t *testing.T, data []byte, c compress.Codec) []byte {
	t.Helper()
	out, err := segmenttest.RowTextLayout(data, c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// buildColumnar renders rows of (monotone int ts, 3-value cycling type,
// unique string, squared int) through a ColumnWriter, returning the
// segment and the exact wire text it must reconstruct.
func buildColumnar(t *testing.T, c compress.Codec, n, chunkSize int) ([]byte, []byte, *segment.ColumnWriter) {
	t.Helper()
	w := segment.NewColumnWriter(c, chunkSize, 4)
	var wire bytes.Buffer
	base := int64(1453476600)
	for i := 0; i < n; i++ {
		fields := []string{
			strconv.FormatInt(base+int64(i)*60, 10),
			[]string{"VOICE", "SMS", "DATA"}[i%3],
			fmt.Sprintf("u-%d", i),
			strconv.Itoa(i * i),
		}
		for k, f := range fields {
			if k > 0 {
				wire.WriteByte('|')
			}
			wire.WriteString(f)
		}
		wire.WriteByte('\n')
		m := segment.RowMeta{TS: (base + int64(i)*60) * 1e9, HasTS: true, Cell: int64(i % 7), HasCell: true}
		if err := w.AppendRowFields(fields, m); err != nil {
			t.Fatal(err)
		}
	}
	data, st, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.RawBytes != int64(wire.Len()) {
		t.Fatalf("stats raw bytes = %d, want %d", st.RawBytes, wire.Len())
	}
	return data, wire.Bytes(), w
}

func TestColumnarRoundTrip(t *testing.T) {
	for _, c := range []compress.Codec{codec(t, "gzip"), identCodec{}} {
		t.Run(c.Name(), func(t *testing.T) {
			data, wire, _ := buildColumnar(t, c, 400, 2<<10)
			r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
			if err != nil {
				t.Fatal(err)
			}
			if r.Version() != 3 || !r.Columnar() {
				t.Fatalf("version = %d, columnar = %v", r.Version(), r.Columnar())
			}
			if r.NumChunks() < 2 {
				t.Fatalf("expected multiple chunks, got %d", r.NumChunks())
			}
			var got bytes.Buffer
			var rows int64
			for i, ch := range r.Chunks() {
				text, err := r.ChunkData(i)
				if err != nil {
					t.Fatal(err)
				}
				got.Write(text)
				rows += ch.Rows
			}
			if !bytes.Equal(got.Bytes(), wire) {
				t.Fatal("reassembled chunks differ from the table wire text")
			}
			if rows != 400 {
				t.Fatalf("footer rows = %d, want 400", rows)
			}
		})
	}
}

func TestColumnarCodecChoicesAndZones(t *testing.T) {
	// Identity codec: sizes are exact, so dict wins the cycling column,
	// delta wins both monotone-int columns, and the unique column stays
	// plain.
	data, _, w := buildColumnar(t, identCodec{}, 400, 2<<10)
	st := w.ColumnStats()
	if st[0].Delta == 0 || st[3].Delta == 0 {
		t.Errorf("int columns: stats = %+v, want delta chunks", st)
	}
	if st[1].Dict == 0 {
		t.Errorf("cycling column: stats = %+v, want dict chunks", st)
	}
	if st[2].Plain == 0 {
		t.Errorf("unique column: stats = %+v, want plain chunks", st)
	}
	if st[1].EntropyBits <= 0 || st[1].EntropyBits >= 6 {
		t.Errorf("cycling column entropy = %g, want (0,6)", st[1].EntropyBits)
	}

	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), identCodec{})
	if err != nil {
		t.Fatal(err)
	}
	// Integer columns carry exact zone maps; the string columns carry none.
	for i, ch := range r.Chunks() {
		ts := ch.Cols[0]
		if !ts.HasZone || ts.Min >= ts.Max {
			t.Fatalf("chunk %d ts zone = %+v", i, ts)
		}
		if ch.Cols[1].HasZone || ch.Cols[2].HasZone {
			t.Fatalf("chunk %d string columns carry zones", i)
		}
		vals, _, err := r.ChunkColumns(i, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals[0] {
			x, _ := strconv.ParseInt(v, 10, 64)
			if x < ts.Min || x > ts.Max {
				t.Fatalf("chunk %d value %s outside zone [%d,%d]", i, v, ts.Min, ts.Max)
			}
		}
	}
}

func TestColumnarSubsetDecode(t *testing.T) {
	data, _, _ := buildColumnar(t, codec(t, "gzip"), 400, 2<<10)
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), codec(t, "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumChunks(); i++ {
		full, fullBytes, err := r.ChunkColumns(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		// want order is respected, values match the full decode, and the
		// subset materializes strictly fewer wire bytes.
		sub, subBytes, err := r.ChunkColumns(i, []int{3, 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(sub) != 2 {
			t.Fatalf("chunk %d: %d columns, want 2", i, len(sub))
		}
		for row := range sub[0] {
			if sub[0][row] != full[3][row] || sub[1][row] != full[1][row] {
				t.Fatalf("chunk %d row %d: subset decode differs from full decode", i, row)
			}
		}
		if subBytes >= fullBytes {
			t.Fatalf("chunk %d: subset inflated %d bytes, full %d", i, subBytes, fullBytes)
		}
	}
	if _, _, err := r.ChunkColumns(0, []int{4}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}

// TestColumnarRowTextFallback: readers serve the legacy row-text chunks of
// older stores — full text and per-column requests alike.
func TestColumnarRowTextFallback(t *testing.T) {
	c := identCodec{}
	w := segment.NewColumnWriter(c, 1<<10, 3)
	var wire bytes.Buffer
	for i := 0; i < 300; i++ {
		fields := []string{
			fmt.Sprintf("a%d-%x", i, i*2654435761),
			fmt.Sprintf("b%d-%x", i*7, i*40503),
			fmt.Sprintf("c%d-%x", i*13, i*9176),
		}
		for k, f := range fields {
			if k > 0 {
				wire.WriteByte('|')
			}
			wire.WriteString(f)
		}
		wire.WriteByte('\n')
		if err := w.AppendRowFields(fields, segment.RowMeta{TS: int64(i) * 1e9, HasTS: true, Cell: 1, HasCell: true}); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data = rowTextLayout(t, data, c)
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	rowMajor := 0
	var got bytes.Buffer
	for i, ch := range r.Chunks() {
		if ch.RowMajor() {
			rowMajor++
		}
		text, err := r.ChunkData(i)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(text)
		// Per-column reads must serve row-major chunks transparently.
		vals, _, err := r.ChunkColumns(i, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(vals[0])) != ch.Rows {
			t.Fatalf("chunk %d: %d values, footer says %d rows", i, len(vals[0]), ch.Rows)
		}
	}
	if rowMajor != r.NumChunks() || rowMajor < 2 {
		t.Fatalf("%d of %d chunks are row-major, want all of several", rowMajor, r.NumChunks())
	}
	if !bytes.Equal(got.Bytes(), wire.Bytes()) {
		t.Fatal("row-text chunks differ from the table wire text")
	}
}
