package segment_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"
	"time"

	"spate/internal/compress"
	_ "spate/internal/compress/all"
	"spate/internal/scanspec"
	"spate/internal/segment"
	"spate/internal/telco"
)

// window is the half-open window [from, to) in whole seconds.
func window(from, to time.Time) *scanspec.TimeWindow {
	return &scanspec.TimeWindow{From: from.Unix(), HasFrom: true, To: to.Unix(), HasTo: true}
}

func codec(t testing.TB, name string) compress.Codec {
	t.Helper()
	c, err := compress.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buildRows renders n synthetic wire lines, one per minute starting at
// base, cycling cell ids through nCells.
func buildRows(n, nCells int, base time.Time) (lines [][]byte, metas []segment.RowMeta) {
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * time.Minute)
		cell := int64(i % nCells)
		lines = append(lines, []byte(fmt.Sprintf("%s|%d|row-%d|%d\n", ts.Format(telco.TimeLayout), cell, i, i*i)))
		metas = append(metas, segment.RowMeta{TS: ts.UnixNano(), HasTS: true, Cell: cell, HasCell: true})
	}
	return lines, metas
}

func encode(t *testing.T, c compress.Codec, chunkSize int, lines [][]byte, metas []segment.RowMeta) []byte {
	t.Helper()
	w := segment.NewWriter(c, chunkSize)
	for i, l := range lines {
		if err := w.AppendRow(l, metas[i]); err != nil {
			t.Fatal(err)
		}
	}
	data, st, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, l := range lines {
		want += int64(len(l))
	}
	if st.RawBytes != want {
		t.Fatalf("stats raw bytes = %d, want %d", st.RawBytes, want)
	}
	return data
}

func TestRoundTripAllCodecs(t *testing.T) {
	base := time.Date(2016, 1, 4, 9, 0, 0, 0, time.UTC)
	lines, metas := buildRows(500, 20, base)
	var wire bytes.Buffer
	for _, l := range lines {
		wire.Write(l)
	}
	for _, name := range compress.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			c := codec(t, name)
			data := encode(t, c, 2<<10, lines, metas)
			r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
			if err != nil {
				t.Fatal(err)
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
			if !bytes.Equal(got.Bytes(), wire.Bytes()) {
				t.Fatal("concatenated chunks differ from the table wire text")
			}
			if rows != 500 {
				t.Fatalf("footer rows = %d, want 500", rows)
			}
		})
	}
}

func TestWindowPruning(t *testing.T) {
	base := time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC)
	lines, metas := buildRows(600, 10, base) // 10 hours of minutes
	c := codec(t, "gzip")
	data := encode(t, c, 4<<10, lines, metas)
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	// A 30-minute window deep inside: most chunks must be prunable, and
	// the surviving chunks must cover every matching row.
	w := window(base.Add(5*time.Hour), base.Add(5*time.Hour+30*time.Minute))
	kept, pruned := 0, 0
	var got bytes.Buffer
	for i, ch := range r.Chunks() {
		if !ch.OverlapsWindow(w) {
			pruned++
			continue
		}
		kept++
		text, err := r.ChunkData(i)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(text)
	}
	if pruned == 0 {
		t.Fatalf("no chunks pruned for a 30-minute window over 10 hours (%d chunks)", r.NumChunks())
	}
	// Every line whose timestamp falls in the window must appear.
	for i, l := range lines {
		ts := base.Add(time.Duration(i) * time.Minute)
		if w.Contains(ts.Unix()) && !bytes.Contains(got.Bytes(), l) {
			t.Fatalf("window row %d missing after pruning (kept=%d pruned=%d)", i, kept, pruned)
		}
	}
}

func TestCellSketchPruning(t *testing.T) {
	base := time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC)
	// Two runs of rows in disjoint cell populations.
	linesA, metasA := buildRows(200, 5, base)
	var linesB [][]byte
	var metasB []segment.RowMeta
	for i := 0; i < 200; i++ {
		ts := base.Add(time.Duration(200+i) * time.Minute)
		cell := int64(1000 + i%5)
		linesB = append(linesB, []byte(fmt.Sprintf("%s|%d|b\n", ts.Format(telco.TimeLayout), cell)))
		metasB = append(metasB, segment.RowMeta{TS: ts.UnixNano(), HasTS: true, Cell: cell, HasCell: true})
	}
	c := codec(t, "snappy")
	data := encode(t, c, 2<<10, append(linesA, linesB...), append(metasA, metasB...))
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	// Probing for cells only population B holds must prune at least the
	// leading chunks (pure population A), and never prune a chunk that
	// actually holds a probed cell.
	probe := []int64{1000, 1001}
	pruned := 0
	for i, ch := range r.Chunks() {
		may := ch.MayContainAnyCell(probe)
		text, err := r.ChunkData(i)
		if err != nil {
			t.Fatal(err)
		}
		holds := bytes.Contains(text, []byte("|1000|")) || bytes.Contains(text, []byte("|1001|"))
		if holds && !may {
			t.Fatalf("chunk %d holds a probed cell but the sketch pruned it", i)
		}
		if !may {
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatal("sketch pruned nothing for disjoint cell populations")
	}
	// No candidates = no pruning.
	if !r.Chunks()[0].MayContainAnyCell(nil) {
		t.Fatal("empty candidate list must disable pruning")
	}
}

// TestOverlapsWindowBeyondNanoseconds: a window bound before 1678 or after
// 2262 — past what int64 nanoseconds hold — or an open side prunes no chunk
// it overlaps and every chunk it does not, and a chunk holding a row
// without a timestamp survives every window.
func TestOverlapsWindowBeyondNanoseconds(t *testing.T) {
	c := codec(t, "gzip")
	base := time.Date(2016, 1, 18, 0, 0, 0, 0, time.UTC)
	lines, metas := buildRows(120, 4, base)
	// The last chunk also holds a row without a timestamp.
	lines = append(lines, []byte("no-ts|1|gap|0\n"))
	metas = append(metas, segment.RowMeta{Cell: 1, HasCell: true})
	data := encode(t, c, 1<<10, lines, metas)
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	chunks := r.Chunks()
	if len(chunks) < 3 || !chunks[len(chunks)-1].HasTimeGaps() || chunks[0].HasTimeGaps() {
		t.Fatalf("want several chunks, only the last with a timestamp gap: %d chunks", len(chunks))
	}
	year := func(y int) int64 { return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC).Unix() }
	for _, tc := range []struct {
		name     string
		w        *scanspec.TimeWindow
		overlaps bool // the timestamped chunks
	}{
		{"unbounded", nil, true},
		{"1600 to 2300", &scanspec.TimeWindow{From: year(1600), HasFrom: true, To: year(2300), HasTo: true}, true},
		{"from 1600", &scanspec.TimeWindow{From: year(1600), HasFrom: true}, true},
		{"before 2300", &scanspec.TimeWindow{To: year(2300), HasTo: true}, true},
		{"from 12016", &scanspec.TimeWindow{From: year(12016), HasFrom: true}, false},
		{"1500 to 1600", &scanspec.TimeWindow{From: year(1500), HasFrom: true, To: year(1600), HasTo: true}, false},
		{"2300 to 2400", &scanspec.TimeWindow{From: year(2300), HasFrom: true, To: year(2400), HasTo: true}, false},
		{"before 1600", &scanspec.TimeWindow{To: year(1600), HasTo: true}, false},
		{"from 2300", &scanspec.TimeWindow{From: year(2300), HasFrom: true}, false},
	} {
		for i, ch := range chunks {
			want := tc.overlaps || ch.HasTimeGaps()
			if got := ch.OverlapsWindow(tc.w); got != want {
				t.Errorf("%s: chunk %d (gap %v) overlaps = %v, want %v", tc.name, i, ch.HasTimeGaps(), got, want)
			}
		}
	}
}

// TestSaturatedTimestampBounds: rows of 1600 and 2300, which int64
// nanoseconds cannot hold, saturate the chunk's bounds, and a saturated
// side reads as open — so no window that holds one of those rows prunes
// the chunk.
func TestSaturatedTimestampBounds(t *testing.T) {
	c := codec(t, "gzip")
	w := segment.NewWriter(c, 1<<20)
	old := time.Date(1600, 3, 1, 10, 0, 0, 0, time.UTC).Unix()
	far := time.Date(2300, 1, 18, 0, 0, 0, 0, time.UTC).Unix()
	for _, sec := range []int64{old, far} {
		if err := w.AppendRow([]byte("row\n"), segment.RowMeta{TS: segment.NanosOf(sec), HasTS: true}); err != nil {
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
	ch := r.Chunks()[0]
	if ch.MinTS != math.MinInt64 {
		t.Errorf("MinTS = %d, want saturated at math.MinInt64", ch.MinTS)
	}
	if lo, hi := ch.TSSeconds(); lo != math.MinInt64 || hi != math.MaxInt64 {
		t.Errorf("TSSeconds = (%d, %d), want both sides open", lo, hi)
	}
	year := func(y int) int64 { return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC).Unix() }
	for _, win := range []*scanspec.TimeWindow{
		{To: year(1601), HasTo: true},
		{From: year(1599), HasFrom: true, To: year(1601), HasTo: true},
		{From: year(2100), HasFrom: true},
		{From: year(2299), HasFrom: true, To: year(2301), HasTo: true},
	} {
		if !ch.OverlapsWindow(win) {
			t.Errorf("window %+v pruned a chunk holding a row inside it", win)
		}
	}
	if segment.NanosOf(far) != math.MaxInt64 || segment.NanosOf(0) != 0 || segment.NanosOf(-1) != -1e9 {
		t.Error("NanosOf saturates only outside the int64 nanosecond range")
	}
}

func TestRowsWithoutMetadataDefeatPruning(t *testing.T) {
	c := codec(t, "gzip")
	w := segment.NewWriter(c, 1<<10)
	if err := w.AppendRow([]byte("no-ts-no-cell\n"), segment.RowMeta{}); err != nil {
		t.Fatal(err)
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	ch := r.Chunks()[0]
	if !ch.OverlapsWindow(window(time.Unix(0, 0), time.Unix(1, 0))) {
		t.Error("chunk with timestamp-less rows was window-pruned")
	}
	if !ch.MayContainCell(42) {
		t.Error("chunk with cell-less rows was sketch-pruned")
	}
}

func TestOpenSniffsLegacyBlobs(t *testing.T) {
	c := codec(t, "gzip")
	legacy := c.Compress(nil, []byte("plain whole-blob leaf data, compressed directly\n"))
	if _, err := segment.Open(bytes.NewReader(legacy), int64(len(legacy)), c); !errors.Is(err, segment.ErrNotSegment) {
		t.Errorf("legacy codec blob: Open = %v, want ErrNotSegment", err)
	}
	if _, err := segment.Open(bytes.NewReader(legacy[:3]), 3, c); !errors.Is(err, segment.ErrNotSegment) {
		t.Errorf("three-byte file: Open = %v, want ErrNotSegment", err)
	}
	lines, metas := buildRows(10, 2, time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC))
	data := encode(t, c, 1<<10, lines, metas)
	if _, err := segment.Open(bytes.NewReader(data), int64(len(data)), c); err != nil {
		t.Errorf("segment not recognized by its magic: %v", err)
	}
	// A segment whose tail is damaged is corrupt, not a legacy blob.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	if _, err := segment.Open(bytes.NewReader(bad), int64(len(bad)), c); err == nil || errors.Is(err, segment.ErrNotSegment) {
		t.Errorf("damaged tail: Open = %v, want a corruption error", err)
	}
}

// countingReader counts the ranged reads Open issues.
type countingReader struct {
	io.ReaderAt
	reads int
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.ReaderAt.ReadAt(p, off)
}

// TestOpenReadsAtMostTwice: a leaf visit pays one read for a small file —
// header, footer and tail arrive together — and two for a large one, never
// the four (magic probe, header, tail, footer) it used to.
func TestOpenReadsAtMostTwice(t *testing.T) {
	c := codec(t, "gzip")
	for _, rows := range []int{10, 50000} {
		lines, metas := buildRows(rows, 8, time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC))
		data := encode(t, c, 64<<10, lines, metas)
		cr := &countingReader{ReaderAt: bytes.NewReader(data)}
		if _, err := segment.Open(cr, int64(len(data)), c); err != nil {
			t.Fatal(err)
		}
		want := 2
		if len(data) <= 64<<10 {
			want = 1
		}
		if cr.reads != want {
			t.Errorf("%d-byte segment: Open issued %d reads, want %d", len(data), cr.reads, want)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	c := codec(t, "zstd")
	lines, metas := buildRows(300, 8, time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC))
	data := encode(t, c, 2<<10, lines, metas)

	// Flip a payload byte: the chunk CRC must catch it.
	bad := append([]byte(nil), data...)
	r, err := segment.Open(bytes.NewReader(bad), int64(len(bad)), c)
	if err != nil {
		t.Fatal(err)
	}
	bad[r.Chunks()[0].Off] ^= 0xFF
	if _, err := r.ChunkData(0); err == nil {
		t.Error("corrupted chunk payload decoded without error")
	}

	// Truncate the tail: Open must fail, not misparse.
	for _, cut := range []int{1, 4, 8, 20} {
		if _, err := segment.Open(bytes.NewReader(data[:len(data)-cut]), int64(len(data)-cut), c); err == nil {
			t.Errorf("cut=%d: truncated segment opened", cut)
		}
	}

	// Garbage footer length.
	bad2 := append([]byte(nil), data...)
	bad2[len(bad2)-8] = 0xFF
	bad2[len(bad2)-7] = 0xFF
	bad2[len(bad2)-6] = 0xFF
	if _, err := segment.Open(bytes.NewReader(bad2), int64(len(bad2)), c); err == nil {
		t.Error("garbage footer length accepted")
	}
}

func TestEmptySegment(t *testing.T) {
	c := codec(t, "gzip")
	w := segment.NewWriter(c, 1<<10)
	data, st, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks != 0 {
		t.Fatalf("empty segment has %d chunks", st.Chunks)
	}
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() != 0 {
		t.Fatalf("empty segment read back %d chunks", r.NumChunks())
	}
}

func TestAdaptiveSketchSizing(t *testing.T) {
	c := codec(t, "gzip")
	base := time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC)

	// Two distinct cells need only the minimum 8-byte bloom.
	lines, metas := buildRows(20, 2, base)
	data := encode(t, c, 1<<20, lines, metas)
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Chunks()[0].Sketch); got != 8 {
		t.Errorf("2-cell chunk sketch = %d bytes, want 8", got)
	}
	for i := int64(0); i < 2; i++ {
		if !r.Chunks()[0].MayContainCell(i) {
			t.Errorf("small sketch lost cell %d", i)
		}
	}

	// A hundred distinct cells saturate to the 128-byte cap.
	lines, metas = buildRows(300, 100, base)
	data = encode(t, c, 1<<20, lines, metas)
	if r, err = segment.Open(bytes.NewReader(data), int64(len(data)), c); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Chunks()[0].Sketch); got != 128 {
		t.Errorf("100-cell chunk sketch = %d bytes, want the 128-byte cap", got)
	}
}

// TestSketchMergeUnion drives the compactor's merge path across sketches of
// different sizes: the union must keep every cell of both chunks (tiling
// the smaller bloom up) while still pruning absent cells.
func TestSketchMergeUnion(t *testing.T) {
	c := codec(t, "gzip")
	base := time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC)
	open := func(data []byte) *segment.Reader {
		t.Helper()
		r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	linesA, metasA := buildRows(20, 4, base) // cells 0..3: 8-byte sketch
	var linesB [][]byte
	var metasB []segment.RowMeta
	for i := 0; i < 200; i++ { // cells 1000..1099: capped 128-byte sketch
		ts := base.Add(time.Duration(20+i) * time.Minute)
		cell := int64(1000 + i%100)
		linesB = append(linesB, []byte(fmt.Sprintf("%s|%d|b\n", ts.Format(telco.TimeLayout), cell)))
		metasB = append(metasB, segment.RowMeta{TS: ts.UnixNano(), HasTS: true, Cell: cell, HasCell: true})
	}
	rA := open(encode(t, c, 1<<20, linesA, metasA))
	rB := open(encode(t, c, 1<<20, linesB, metasB))
	if la, lb := len(rA.Chunks()[0].Sketch), len(rB.Chunks()[0].Sketch); la >= lb {
		t.Fatalf("rig broken: sketches %d and %d bytes, want small < large", la, lb)
	}

	w := segment.NewWriter(c, 1<<20)
	for _, r := range []*segment.Reader{rA, rB} {
		text, err := r.ChunkData(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendChunk(text, r.Chunks()[0]); err != nil {
			t.Fatal(err)
		}
	}
	data, st, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks != 1 {
		t.Fatalf("merge produced %d chunks", st.Chunks)
	}
	ch := open(data).Chunks()[0]
	if len(ch.Sketch) != 128 {
		t.Errorf("merged sketch = %d bytes, want the larger size 128", len(ch.Sketch))
	}
	for i := int64(0); i < 4; i++ {
		if !ch.MayContainCell(i) {
			t.Errorf("merge lost small-sketch cell %d", i)
		}
	}
	for i := int64(1000); i < 1100; i++ {
		if !ch.MayContainCell(i) {
			t.Errorf("merge lost large-sketch cell %d", i)
		}
	}
	pruned := 0
	for i := int64(5000); i < 5050; i++ {
		if !ch.MayContainCell(i) {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("merged sketch prunes nothing: union is saturated")
	}
}

// TestVersion1Compat hand-builds a version-1 segment — fixed 128-byte
// sketch, no length prefix — and proves today's reader still serves it:
// stores written before the adaptive-sketch format must survive upgrades.
func TestVersion1Compat(t *testing.T) {
	c := codec(t, "gzip")
	text := []byte("2016-01-04 00:00:00|7|legacy row one\n2016-01-04 00:01:00|9|legacy row two\n")
	cells := []int64{7, 9}

	var payload bytes.Buffer
	sw := compress.NewStreamWriterSize(c, &payload, 1<<20)
	if _, err := sw.Write(text); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	// v1 bloom: k=3 splitmix64 probes over 1024 bits (the wire contract
	// this test pins down, hence the local reimplementation).
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	var sketch [128]byte
	for _, id := range cells {
		h := uint64(id)
		for i := 0; i < 3; i++ {
			h = mix(h + uint64(i)*0x9e3779b97f4a7c15)
			bit := h % (128 * 8)
			sketch[bit/8] |= 1 << (bit % 8)
		}
	}

	var f bytes.Buffer
	f.WriteString("SPSG")
	f.WriteByte(1) // version 1
	f.Write(payload.Bytes())
	var foot bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { foot.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(1)                     // chunk count
	put(5)                     // off
	put(uint64(payload.Len())) // clen
	put(uint64(len(text)))     // ulen
	put(2)                     // rows
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(payload.Bytes()))
	foot.Write(tmp[:4])
	foot.WriteByte(0) // flags
	ts := time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC).UnixNano()
	binary.LittleEndian.PutUint64(tmp[:8], uint64(ts))
	foot.Write(tmp[:8])
	binary.LittleEndian.PutUint64(tmp[:8], uint64(ts+60e9))
	foot.Write(tmp[:8])
	foot.Write(sketch[:]) // fixed-size, no length prefix
	f.Write(foot.Bytes())
	binary.LittleEndian.PutUint32(tmp[:4], uint32(foot.Len()))
	f.Write(tmp[:4])
	f.WriteString("GSPS")

	r, err := segment.Open(bytes.NewReader(f.Bytes()), int64(f.Len()), c)
	if err != nil {
		t.Fatalf("v1 segment rejected: %v", err)
	}
	got, err := r.ChunkData(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text) {
		t.Fatal("v1 chunk text mismatch")
	}
	ch := r.Chunks()[0]
	if len(ch.Sketch) != 128 {
		t.Fatalf("v1 sketch read as %d bytes", len(ch.Sketch))
	}
	if !ch.MayContainCell(7) || !ch.MayContainCell(9) {
		t.Error("v1 sketch lost its cells")
	}
	if ch.MayContainCell(12345) {
		t.Error("v1 sketch does not prune an absent cell")
	}
}
