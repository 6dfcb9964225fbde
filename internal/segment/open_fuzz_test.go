package segment_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spate/internal/compress"
	"spate/internal/compress/gzipc"
	"spate/internal/segment"
	"spate/internal/telco"
)

// handChunk is the footer entry of the one chunk handSegment writes.
type handChunk struct {
	off, len, ulen, rows uint64
	crc                  uint32
	colLens              []uint64 // v3: plain column streams of a packed chunk
}

// handSegment hand-assembles a segment: header, the data area, and a
// footer holding ch, block-compressed through c when the version is 3.
func handSegment(c compress.Codec, version byte, data []byte, ch handChunk) []byte {
	b := append([]byte("SPSG"), version)
	b = append(b, data...)
	var foot []byte
	for _, v := range []uint64{1, ch.off, ch.len, ch.ulen, ch.rows} { // 1: chunk count
		foot = binary.AppendUvarint(foot, v)
	}
	foot = binary.LittleEndian.AppendUint32(foot, ch.crc)
	foot = append(foot, make([]byte, 1+8+8)...) // flags, min/max ts
	foot = binary.AppendUvarint(foot, 0)        // no sketch
	if version >= 3 {
		foot = binary.AppendUvarint(foot, uint64(len(ch.colLens)))
		for _, l := range ch.colLens {
			foot = append(foot, compress.ColPlain)
			foot = binary.AppendUvarint(foot, l)
		}
		foot = c.Compress(nil, foot)
	}
	b = append(b, foot...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(foot)))
	return append(b, "GSPS"...)
}

// wrappingSpan is a v2 segment whose one chunk starts at offset 5 of a
// 16-byte data area and runs for length bytes.
func wrappingSpan(length uint64) []byte {
	return handSegment(gzipc.Codec{}, segment.RowVersion, make([]byte, 16), handChunk{off: 5, len: length, ulen: 1, rows: 1})
}

// TestOpenRejectsWrappingChunkSpan pins the chunk bounds check against
// overflow: an offset plus a length that wraps int64 lands "inside" the
// data area when summed, and a reader that accepted it would allocate the
// length on the first ChunkBytes.
func TestOpenRejectsWrappingChunkSpan(t *testing.T) {
	c := gzipc.Codec{}
	ok := wrappingSpan(16)
	if _, err := segment.Open(bytes.NewReader(ok), int64(len(ok)), c); err != nil {
		t.Fatalf("a chunk spanning the data area: %v", err)
	}
	for _, length := range []uint64{17, math.MaxInt64 - 2, math.MaxInt64} {
		data := wrappingSpan(length)
		_, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("chunk [5,+%d) in a 16-byte data area: err = %v, want ErrCorrupt", length, err)
		}
	}
}

// TestLyingColumnDirectoryIsCorrupt opens packed v3 chunks whose payload
// and CRC are sound but whose footer lies: column lengths that wrap int64
// to the stream size, a row count the streams do not hold, a wire length
// the rows do not fill. Each must come back ErrCorrupt, from Open or from
// ChunkData, before anything is sized by the lie.
func TestLyingColumnDirectoryIsCorrupt(t *testing.T) {
	payload := identCodec{}.Compress(nil, []byte("a\nb")) // one plain column, rows "a" and "b"
	seg := func(ulen, rows uint64, colLens ...uint64) []byte {
		return handSegment(identCodec{}, segment.Version, payload, handChunk{
			off: 5, len: uint64(len(payload)), ulen: ulen, rows: rows,
			crc: crc32.ChecksumIEEE(payload), colLens: colLens,
		})
	}
	chunkData := func(data []byte) ([]byte, error) {
		r, err := segment.Open(bytes.NewReader(data), int64(len(data)), identCodec{})
		if err != nil {
			return nil, err
		}
		return r.ChunkData(0)
	}
	if text, err := chunkData(seg(4, 2, 3)); err != nil || string(text) != "a\nb\n" {
		t.Fatalf("the honest chunk: %q, %v", text, err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"column lengths wrapping to the stream size", seg(4, 2, math.MaxInt64, math.MaxInt64, 5)},
		{"a row count the streams do not hold", seg(1<<61, 1<<60, 3)},
		{"a wire length the rows do not fill", seg(1<<61, 2, 3)},
	} {
		if _, err := chunkData(tc.data); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// stringSchema is n string columns: a packed chunk of n column streams
// decodes under it whatever the streams hold.
func stringSchema(n int) *telco.Schema {
	fields := make([]telco.Field, n)
	for i := range fields {
		fields[i] = telco.Field{Name: fmt.Sprint("c", i), Kind: telco.KindString}
	}
	return telco.MustSchema("S", fields)
}

// TestDecodeBatchRefusesLyingRowCount opens packed v3 chunks whose payload
// and CRC are sound but whose footer claims more rows than a chunk may
// hold, and decodes each into a batch. A row count of 2^60 once reached
// the batch's sizing and panicked there; each must come back ErrCorrupt,
// and the honest chunk must decode.
func TestDecodeBatchRefusesLyingRowCount(t *testing.T) {
	payload := identCodec{}.Compress(nil, []byte("a\nb")) // one plain column, rows "a" and "b"
	decode := func(ulen, rows uint64) (*telco.Batch, error) {
		data := handSegment(identCodec{}, segment.Version, payload, handChunk{
			off: 5, len: uint64(len(payload)), ulen: ulen, rows: rows,
			crc: crc32.ChecksumIEEE(payload), colLens: []uint64{3},
		})
		r, err := segment.Open(bytes.NewReader(data), int64(len(data)), identCodec{})
		if err != nil {
			return nil, err
		}
		inflated, err := r.ChunkBytes(0)
		if err != nil {
			return nil, err
		}
		var b telco.Batch
		_, err = r.DecodeBatch(0, inflated, stringSchema(1), nil, &b)
		return &b, err
	}
	if b, err := decode(4, 2); err != nil || b.N != 2 || string(b.Cols[0].Bytes(1)) != "b" {
		t.Fatalf("the honest chunk: %v", err)
	}
	for _, rows := range []uint64{1 << 60, segment.MaxChunkRows + 1} {
		if _, err := decode(1<<61, rows); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("a footer claiming %d rows: err = %v, want ErrCorrupt", rows, err)
		}
	}
}

// TestWritersHonourMaxChunkRows: a chunk of one-byte rows under a chunk
// size that would hold millions of them still ends at MaxChunkRows rows,
// from the row writer, the column writer and the compactor's chunk merge,
// so every segment a writer makes opens under Open's bound.
func TestWritersHonourMaxChunkRows(t *testing.T) {
	const rows = segment.MaxChunkRows + 3
	check := func(name string, seg []byte) *segment.Reader {
		t.Helper()
		r, err := segment.Open(bytes.NewReader(seg), int64(len(seg)), gzipc.Codec{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []int64
		for _, c := range r.Chunks() {
			got = append(got, c.Rows)
		}
		if len(got) != 2 || got[0] != segment.MaxChunkRows || got[1] != 3 {
			t.Fatalf("%s: chunks of %v rows", name, got)
		}
		return r
	}
	w := segment.NewWriter(gzipc.Codec{}, 64<<20)
	cw := segment.NewColumnWriter(gzipc.Codec{}, 64<<20, 1)
	for range rows {
		if err := w.AppendRow([]byte("a\n"), segment.RowMeta{}); err != nil {
			t.Fatal(err)
		}
		if err := cw.AppendRowFields([]string{"a"}, segment.RowMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	seg, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r := check("row writer", seg)
	if seg, _, err = cw.Finish(); err != nil {
		t.Fatal(err)
	}
	check("column writer", seg)
	// The compactor merges the two chunks back the other way round: the
	// short one first, so the long one must not join it.
	merged := segment.NewWriter(gzipc.Codec{}, 64<<20)
	chunks := r.Chunks()
	for _, i := range []int{1, 0} {
		text, err := r.ChunkData(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.AppendChunk(text, chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if seg, _, err = merged.Finish(); err != nil {
		t.Fatal(err)
	}
	mr, err := segment.Open(bytes.NewReader(seg), int64(len(seg)), gzipc.Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if c := mr.Chunks(); len(c) != 2 || c[0].Rows != 3 || c[1].Rows != segment.MaxChunkRows {
		t.Fatalf("merged chunks: %+v", c)
	}
}

// TestTruncatedStreamChunkIsCorrupt: a v2 chunk whose payload passes its
// CRC but whose gzip stream ends early — mid-frame, mid-header, or before
// the end-of-stream marker — is corrupt input, as every other refusal of
// a chunk's bytes is.
func TestTruncatedStreamChunkIsCorrupt(t *testing.T) {
	var text, stream bytes.Buffer
	for i := range 35 {
		fmt.Fprintf(&text, "row %d|%d|%x\n", i, i*i, i*i*i*7919)
	}
	sw := compress.NewStreamWriterSize(gzipc.Codec{}, &stream, 1<<10)
	if _, err := sw.Write(text.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	full := stream.Bytes()
	for _, cut := range []int{len(full) - 5, 1, len(full) - 1} {
		payload := full[:cut]
		data := handSegment(gzipc.Codec{}, segment.RowVersion, payload, handChunk{
			off: 5, len: uint64(len(payload)), ulen: uint64(text.Len()), rows: 35,
			crc: crc32.ChecksumIEEE(payload),
		})
		r, err := segment.Open(bytes.NewReader(data), int64(len(data)), gzipc.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ChunkBytes(0); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("a %d-byte stream cut to %d: err = %v, want ErrCorrupt", len(full), cut, err)
		}
	}
}

// FuzzSegmentOpen feeds mutated bytes to segment.Open, then fetches,
// reassembles and decodes into a batch every chunk of whatever opens.
// Nothing may panic, and every refusal must be a corrupt-input or
// not-a-segment error — but a row-text chunk's batch decode, whose string
// schema need not fit the rows the mutation left. Each input opens under
// gzip, the store's codec, and under the identity codec, whose v3 footers
// and column streams the mutations reach without first having to survive
// inflation.
func FuzzSegmentOpen(f *testing.F) {
	v3, err := os.ReadFile(filepath.Join("testdata", "pr16-cdr-packed.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	lines, metas := buildRows(40, 5, time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC))
	w := segment.NewWriter(gzipc.Codec{}, 512)
	for i, l := range lines {
		if err := w.AppendRow(l, metas[i]); err != nil {
			f.Fatal(err)
		}
	}
	v2, _, err := w.Finish()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	cw := segment.NewColumnWriter(identCodec{}, 256, 2)
	for i := range 30 {
		if err := cw.AppendRowFields([]string{"VOICE", string(rune('a' + i%26))}, metas[i]); err != nil {
			f.Fatal(err)
		}
	}
	plain, _, err := cw.Finish()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	f.Add(wrappingSpan(math.MaxInt64 - 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []compress.Codec{gzipc.Codec{}, identCodec{}} {
			checkRefusal := func(what string, err error) {
				if err != nil && !errors.Is(err, compress.ErrCorrupt) && !errors.Is(err, segment.ErrNotSegment) {
					t.Fatalf("%s: %s: %v is neither corrupt input nor not a segment", c.Name(), what, err)
				}
			}
			r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
			checkRefusal("open", err)
			if err != nil {
				continue
			}
			for i, ch := range r.Chunks() {
				inflated, err := r.ChunkBytes(i)
				checkRefusal("chunk bytes", err)
				_, err = r.ChunkData(i)
				checkRefusal("chunk data", err)
				if inflated == nil {
					continue
				}
				var b telco.Batch
				_, err = r.DecodeBatch(i, inflated, stringSchema(max(len(ch.Cols), 1)), nil, &b)
				if len(ch.Cols) > 0 {
					checkRefusal("decode batch", err)
				}
			}
		}
	})
}
