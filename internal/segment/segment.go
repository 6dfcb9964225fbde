// Package segment implements SPATE's chunked leaf storage format — the
// refactor of the paper's storage layer (§IV) that makes row-fetch cost
// scale with query selectivity instead of snapshot size.
//
// A legacy leaf is a whole-table blob: one compressed run of the table's
// wire text, which a reader must fetch and inflate in full even when the
// query wants one cell in one 30-minute slice. A segment splits the same
// wire text into independently compressed chunks at row boundaries, each
// carrying the statistics a reader needs to skip it — min/max record
// timestamp, a cell-id presence sketch, and a CRC — plus a footer of chunk
// offsets, so a reader seeks straight to the relevant chunks through
// ranged DFS reads and never touches the rest.
//
// On-disk layout (all integers little-endian):
//
//	header   magic "SPSG" | version byte
//	chunks   each chunk payload is a compress stream (length-prefixed
//	         compressed sub-chunks + terminator, see compress.StreamWriter)
//	footer   uvarint chunk count, then per chunk:
//	           off, clen, ulen  uvarint   payload location and inflated size
//	           rows             uvarint   record count
//	           crc              uint32    CRC-32 (IEEE) of the payload bytes
//	           flags            byte      bit0: rows without timestamps
//	                                      bit1: rows without cell ids
//	           minTS, maxTS     int64     unix nanos over timestamped rows
//	           sketch           cell-id bloom filter (k=3):
//	                              v1: 128 bytes, fixed
//	                              v2: uvarint length | length bytes, where
//	                                  length is 0 or a power of two <= 128
//	tail     footer length uint32 | magic "GSPS"
//
// Version 2 sizes each chunk's sketch to its distinct-cell count instead of
// always paying 128 bytes: a chunk covering 30 cells prunes just as well
// with a 64-byte bloom, and for small leaves the fixed sketch dominated the
// whole footer. Power-of-two sizing keeps blooms composable — bit
// positions are h mod the bit count, so a bloom of m bytes tiled out to 2m
// covers both candidate positions of every key, and the compactor can
// union sketches of different sizes when merging chunks without false
// negatives.
//
// Version 3 turns the chunk payload column-major: each column packs its
// escaped wire fields with the encoding its entropy selects (see
// compress.EncodeColumn), the packed streams concatenate, and the block
// codec compresses the concatenation once — so the codec keeps one shared
// context across all columns. Each chunk's footer entry grows a column
// directory appended after the sketch:
//
//	ncols            uvarint
//	per column:
//	  tag|zone       byte      codec tag (low nibble) | zone presence (bit 4)
//	  len            uvarint   stream length in the inflated concatenation
//	                           (omitted in row-text chunks); offsets are
//	                           implied — each stream starts where the
//	                           previous ended
//	  min            varint    integer zone lower bound (only when zoned)
//	  span           uvarint   max - min (only when zoned)
//
// A v3 chunk may instead carry flag bit2 (row text): its payload is the
// block-compressed row-major wire text, and the column directory keeps only
// zones and tags with zero off/len. Writers before PR 17 compressed every
// chunk both ways and chose this layout when it came out smaller (e.g. under
// a dictionary trained on row-major samples); no writer produces it any more,
// and readers keep serving the chunks those stores hold.
//
// The whole v3 footer (chunk entries + column directories) is itself
// block-compressed; the tail's footer length counts the compressed bytes.
//
// Readers inflate a chunk once (ChunkBytes — the form the engine's chunk
// cache, an internal/cache LRU, holds) and decode from there: scans take a
// column batch of just the columns they touch (DecodeBatch), compaction
// reconstructs a v3 chunk's exact wire text by decoding every stream and
// re-joining fields (ChunkData), and ChunkColumns materializes selected
// columns as wire fields. Readers accept versions 1-3; the row Writer
// emits v2 and the ColumnWriter emits v3.
//
// The format byte selects the read path: files that do not start with the
// magic are legacy whole-blob leaves and must be read through the codec
// directly (Open reports them as ErrNotSegment). Versioning lives in the fifth header byte so later formats can
// evolve without breaking recovery of stores written by today's engine.
package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"spate/internal/compress"
	"spate/internal/scanspec"
	"spate/internal/telco"
)

// Format constants.
const (
	// Version is the newest format a reader understands.
	Version = 3
	// RowVersion is the version the row-oriented Writer emits; the
	// ColumnWriter emits Version.
	RowVersion = 2

	headerLen = 5 // magic + version
	tailLen   = 8 // footer length + tail magic

	// maxCols bounds the column directory a reader will allocate for.
	maxCols = 1 << 12

	// SketchBytes is the largest per-chunk cell-id bloom filter; version-1
	// files always use it, version-2 writers size down to the chunk's
	// distinct-cell count.
	SketchBytes = 128

	// minSketchBytes floors adaptive sketch sizing so even a one-cell
	// chunk's bloom stays sparse.
	minSketchBytes = 8

	// sketchBitsPerCell targets ~12 bits per distinct cell before rounding
	// up to a power of two — roughly 1% false positives at k=3.
	sketchBitsPerCell = 12

	sketchHashes = 3

	flagNoTS   = 1 << 0 // chunk holds rows without a parseable timestamp
	flagNoCell = 1 << 1 // chunk holds rows without a cell id column

	// colTagMask and colZoneBit split the column directory's per-column
	// lead byte: codec tag in the low nibble, zone presence in bit 4.
	colTagMask = 0x0f
	colZoneBit = 0x10
	// flagRowText marks a v3 chunk whose payload is the block-compressed
	// row-major wire text instead of packed column streams — a layout only
	// writers before PR 17 chose; read-only now. The column directory keeps
	// its zone maps; Off/Len are zero.
	flagRowText = 1 << 2
)

var (
	magic     = [4]byte{'S', 'P', 'S', 'G'}
	tailMagic = [4]byte{'G', 'S', 'P', 'S'}
)

// DefaultChunkSize is the target uncompressed bytes per chunk. 256 KiB
// keeps per-chunk decode latency low while the footer stays a fraction of
// a percent of the data.
const DefaultChunkSize = 256 << 10

// maxFooter bounds the footer a reader will allocate for.
const maxFooter = 64 << 20

// MaxChunkRows bounds the rows of one chunk. Writers flush a chunk when it
// reaches the bound, whatever its bytes; Open refuses a footer claiming
// more, so a reader sizes nothing by a row count past it. At
// DefaultChunkSize a chunk of one-byte rows holds a quarter of it.
const MaxChunkRows = 1 << 20

// RowMeta carries the per-record statistics the writer folds into chunk
// metadata.
type RowMeta struct {
	// TS is the record's timestamp; HasTS is false when the schema has no
	// timestamp attribute or the value is null (such rows defeat window
	// pruning for their chunk).
	TS    int64 // unix nanoseconds, saturated as NanosOf does
	HasTS bool
	// Cell is the record's cell id; HasCell is false when the schema has no
	// cell-id attribute (such rows defeat spatial pruning for their chunk).
	Cell    int64
	HasCell bool
}

// Chunk describes one stored chunk — the zone-map entry readers prune by.
type Chunk struct {
	Off   int64 // payload offset within the segment file
	Len   int64 // compressed payload bytes
	ULen  int64 // uncompressed (wire text) bytes
	Rows  int64
	CRC   uint32
	Flags byte
	MinTS int64 // unix nanos, saturated (NanosOf); valid only when some row carried a timestamp
	MaxTS int64

	// Sketch is the chunk's cell-id bloom filter: 0 or a power-of-two
	// number of bytes up to SketchBytes. Empty means the chunk either
	// holds no cell ids (flagNoCell defeats pruning) or was written empty.
	Sketch []byte

	// Cols is the v3 column directory: one entry per schema column, in
	// schema order. Nil for v1/v2 row-major chunks.
	Cols []ColMeta
}

// RowMajor reports whether a v3 chunk stores row-major wire text rather
// than packed column streams (the writer's per-chunk layout choice).
func (c Chunk) RowMajor() bool { return c.Flags&flagRowText != 0 }

// ColMeta locates and describes one column stream of a v3 chunk.
type ColMeta struct {
	// Tag is the column codec (compress.ColPlain/ColDict/ColDelta).
	Tag byte
	// Off and Len locate the stream within the chunk's inflated packed
	// concatenation (both zero in row-text chunks).
	Off int64
	Len int64
	// HasZone marks columns whose every field in the chunk is a canonical
	// base-10 integer; Min and Max then bound the values. Zone presence
	// implies the column has no nulls (blank fields) in the chunk.
	HasZone  bool
	Min, Max int64
}

// OverlapsWindow reports whether the chunk may hold a row inside the
// window w (nil: no bound). Chunks holding rows without timestamps always
// may.
func (c Chunk) OverlapsWindow(w *scanspec.TimeWindow) bool {
	if c.Flags&flagNoTS != 0 {
		return true
	}
	return w.OverlapsRange(c.TSSeconds())
}

// TSSeconds returns the chunk's timestamp bounds in Unix seconds, the form
// every window test reads them in. The footer's nanoseconds are whole
// seconds, as rows carry them, except a bound the writer saturated
// (NanosOf): that side is open, the minimum reading math.MinInt64 and the
// maximum math.MaxInt64. A chunk without timestamped rows keeps its
// sentinel bounds, minimum above maximum.
func (c Chunk) TSSeconds() (lo, hi int64) {
	lo, hi = c.MinTS/1e9, c.MaxTS/1e9
	if c.MinTS == math.MinInt64 {
		lo = math.MinInt64
	}
	if c.MaxTS == math.MaxInt64 {
		hi = math.MaxInt64
	}
	return lo, hi
}

// NanosOf returns Unix second sec as a footer's nanosecond bound, saturated
// at the int64 extremes for a time outside the years 1678–2262, which
// int64 nanoseconds cannot hold. TSSeconds reads a saturated bound as
// open.
func NanosOf(sec int64) int64 {
	const perSec = 1_000_000_000
	switch {
	case sec > math.MaxInt64/perSec:
		return math.MaxInt64
	case sec < math.MinInt64/perSec:
		return math.MinInt64
	}
	return sec * perSec
}

// HasTimeGaps reports whether the chunk holds rows without timestamps —
// such rows match every window, so the chunk defeats window pruning.
func (c Chunk) HasTimeGaps() bool { return c.Flags&flagNoTS != 0 }

// HasCellGaps reports whether the chunk holds rows without a cell id —
// such rows survive any spatial filter, so the chunk defeats cell pruning.
func (c Chunk) HasCellGaps() bool { return c.Flags&flagNoCell != 0 }

// MayContainCell reports whether the chunk may hold a row of the given
// cell. False positives are possible (it is a bloom filter); false
// negatives are not.
func (c Chunk) MayContainCell(id int64) bool {
	if c.Flags&flagNoCell != 0 {
		return true
	}
	bits := uint64(len(c.Sketch)) * 8
	if bits == 0 {
		return false // every row carried a cell id, and none was recorded
	}
	h := uint64(id)
	for i := 0; i < sketchHashes; i++ {
		h = mix64(h + uint64(i)*0x9e3779b97f4a7c15)
		bit := h % bits
		if c.Sketch[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// MayContainAnyCell reports whether the chunk may hold a row of any of the
// given cells. An empty candidate list means "no spatial pruning" and
// always returns true.
func (c Chunk) MayContainAnyCell(ids []int64) bool {
	if len(ids) == 0 || c.Flags&flagNoCell != 0 {
		return true
	}
	for _, id := range ids {
		if c.MayContainCell(id) {
			return true
		}
	}
	return false
}

// mix64 is splitmix64's finalizer — a cheap avalanche over cell ids.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func sketchSet(s []byte, id int64) {
	bits := uint64(len(s)) * 8
	h := uint64(id)
	for i := 0; i < sketchHashes; i++ {
		h = mix64(h + uint64(i)*0x9e3779b97f4a7c15)
		bit := h % bits
		s[bit/8] |= 1 << (bit % 8)
	}
}

// sketchSizeFor picks the bloom size for a chunk with n distinct cells:
// the smallest power of two giving sketchBitsPerCell bits per cell, capped
// at SketchBytes.
func sketchSizeFor(n int) int {
	size := minSketchBytes
	for size*8 < n*sketchBitsPerCell && size < SketchBytes {
		size <<= 1
	}
	return size
}

// foldUnion unions two power-of-two blooms at the larger of their sizes.
// The smaller bloom tiles up: a key's bit at m bytes is h mod 8m, so at 2m
// the bit is either that position or that position plus 8m — repeating the
// bloom sets both candidates, preserving no-false-negatives at the
// smaller bloom's original density.
func foldUnion(a, b []byte) []byte {
	if len(a) == 0 {
		return append([]byte(nil), b...)
	}
	if len(b) == 0 {
		return append([]byte(nil), a...)
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	out := append([]byte(nil), a...)
	for i := range out {
		out[i] |= b[i%len(b)]
	}
	return out
}

// bufPool recycles the writer's accumulation buffers across snapshots —
// ingest builds two segments per epoch forever, so per-epoch allocation
// would churn hundreds of MB per simulated day.
var bufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// Writer accumulates wire-text rows into chunks and renders the segment.
// It is not safe for concurrent use; ingest runs one writer per table
// worker.
type Writer struct {
	codec     compress.Codec
	chunkSize int

	out *bytes.Buffer // rendered segment so far (header + flushed payloads)
	cur *bytes.Buffer // wire text of the chunk being accumulated

	chunks []Chunk

	// current chunk stats
	rows  int64
	minTS int64
	maxTS int64
	flags byte
	// cells collects the current chunk's distinct cell ids; the sketch is
	// sized and built from it at flush time.
	cells map[int64]struct{}
	// folded unions sketches folded in through AppendChunk (the merge
	// path), where only the bloom — not the cell set — is known.
	folded []byte

	finished bool
}

// NewWriter returns a writer compressing chunks with the given codec. A
// non-positive chunkSize selects DefaultChunkSize.
func NewWriter(codec compress.Codec, chunkSize int) *Writer {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	w := &Writer{
		codec:     codec,
		chunkSize: chunkSize,
		out:       bufPool.Get().(*bytes.Buffer),
		cur:       bufPool.Get().(*bytes.Buffer),
	}
	w.out.Reset()
	w.cur.Reset()
	w.out.Write(magic[:])
	w.out.WriteByte(RowVersion)
	w.resetChunkStats()
	return w
}

func (w *Writer) resetChunkStats() {
	w.rows = 0
	w.minTS = math.MaxInt64
	w.maxTS = math.MinInt64
	w.flags = 0
	if w.cells == nil {
		w.cells = make(map[int64]struct{})
	} else {
		clear(w.cells)
	}
	w.folded = nil
}

// AppendRow adds one wire-text line (including its trailing newline) with
// its pruning metadata. Rows are stored in append order, so concatenating
// every chunk's inflated text reproduces the table's wire form exactly.
func (w *Writer) AppendRow(line []byte, m RowMeta) error {
	if w.finished {
		return fmt.Errorf("segment: append after Finish")
	}
	w.cur.Write(line)
	w.rows++
	if m.HasTS {
		if m.TS < w.minTS {
			w.minTS = m.TS
		}
		if m.TS > w.maxTS {
			w.maxTS = m.TS
		}
	} else {
		w.flags |= flagNoTS
	}
	if m.HasCell {
		w.cells[m.Cell] = struct{}{}
	} else {
		w.flags |= flagNoCell
	}
	if w.cur.Len() >= w.chunkSize || w.rows == MaxChunkRows {
		return w.flushChunk()
	}
	return nil
}

// AppendChunk folds one stored chunk — its inflated wire text plus footer
// statistics — into the writer, the compactor's merge path: undersized
// neighbours accumulate into the current chunk until it reaches the target
// size. Stats fold conservatively: flags OR together, sketches union, and
// the timestamp bounds widen (an all-flagged chunk's sentinel bounds fold
// harmlessly, and its flag defeats pruning regardless).
func (w *Writer) AppendChunk(text []byte, ch Chunk) error {
	if w.finished {
		return fmt.Errorf("segment: append after Finish")
	}
	if w.rows+ch.Rows > MaxChunkRows {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	w.cur.Write(text)
	w.rows += ch.Rows
	if ch.MinTS < w.minTS {
		w.minTS = ch.MinTS
	}
	if ch.MaxTS > w.maxTS {
		w.maxTS = ch.MaxTS
	}
	w.flags |= ch.Flags
	if len(ch.Sketch) > 0 {
		w.folded = foldUnion(w.folded, ch.Sketch)
	}
	if w.cur.Len() >= w.chunkSize {
		return w.flushChunk()
	}
	return nil
}

func (w *Writer) flushChunk() error {
	if w.cur.Len() == 0 {
		return nil
	}
	off := int64(w.out.Len())
	sw := compress.NewStreamWriterSize(w.codec, w.out, w.chunkSize)
	if _, err := sw.Write(w.cur.Bytes()); err != nil {
		return fmt.Errorf("segment: compress chunk: %w", err)
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("segment: compress chunk: %w", err)
	}
	payload := w.out.Bytes()[off:]
	// Build the sketch sized to the chunk's distinct-cell count. A chunk
	// carrying cell-less rows skips it entirely: flagNoCell already defeats
	// spatial pruning, so the bloom would be dead weight.
	var sk []byte
	if w.flags&flagNoCell == 0 {
		if len(w.cells) > 0 {
			sk = make([]byte, sketchSizeFor(len(w.cells)))
			for id := range w.cells {
				sketchSet(sk, id)
			}
		}
		if len(w.folded) > 0 {
			sk = foldUnion(sk, w.folded)
		}
	}
	ch := Chunk{
		Off:    off,
		Len:    int64(len(payload)),
		ULen:   int64(w.cur.Len()),
		Rows:   w.rows,
		CRC:    crc32.ChecksumIEEE(payload),
		Flags:  w.flags,
		MinTS:  w.minTS,
		MaxTS:  w.maxTS,
		Sketch: sk,
	}
	w.chunks = append(w.chunks, ch)
	w.cur.Reset()
	w.resetChunkStats()
	return nil
}

// Stats summarizes a finished segment.
type Stats struct {
	Chunks       int
	RawBytes     int64 // uncompressed wire text across chunks
	PayloadBytes int64 // compressed chunk payloads, header and footer excluded
}

// Finish flushes the last chunk, appends the footer and returns the
// rendered segment. The writer's buffers return to the pool; the returned
// slice is owned by the caller.
func (w *Writer) Finish() ([]byte, Stats, error) {
	if w.finished {
		return nil, Stats{}, fmt.Errorf("segment: double Finish")
	}
	w.finished = true
	if err := w.flushChunk(); err != nil {
		return nil, Stats{}, err
	}
	st := writeFooter(w.out, w.chunks, nil)

	data := append([]byte(nil), w.out.Bytes()...)
	bufPool.Put(w.out)
	bufPool.Put(w.cur)
	w.out, w.cur = nil, nil
	return data, st, nil
}

// writeFooter appends the footer and tail for the accumulated chunks.
// A non-nil codec selects the v3 footer entry (column directory after the
// sketch) and block-compresses the whole footer — per-chunk column
// directories are repetitive enough that plain storage would dominate
// small segments.
func writeFooter(dst *bytes.Buffer, chunks []Chunk, codec compress.Codec) Stats {
	withCols := codec != nil
	out := dst
	if withCols {
		out = new(bytes.Buffer)
	}
	footStart := out.Len()
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		out.Write(tmp[:n])
	}
	putVarint := func(v int64) {
		n := binary.PutVarint(tmp[:], v)
		out.Write(tmp[:n])
	}
	putUvarint(uint64(len(chunks)))
	var st Stats
	st.Chunks = len(chunks)
	for _, c := range chunks {
		putUvarint(uint64(c.Off))
		putUvarint(uint64(c.Len))
		putUvarint(uint64(c.ULen))
		putUvarint(uint64(c.Rows))
		binary.LittleEndian.PutUint32(tmp[:4], c.CRC)
		out.Write(tmp[:4])
		out.WriteByte(c.Flags)
		binary.LittleEndian.PutUint64(tmp[:8], uint64(c.MinTS))
		out.Write(tmp[:8])
		binary.LittleEndian.PutUint64(tmp[:8], uint64(c.MaxTS))
		out.Write(tmp[:8])
		putUvarint(uint64(len(c.Sketch)))
		out.Write(c.Sketch)
		if withCols {
			putUvarint(uint64(len(c.Cols)))
			for _, m := range c.Cols {
				// One byte carries the codec tag (low bits) and the
				// zone-presence flag; stream offsets are implied (each
				// stream starts where the previous ended), and row-text
				// chunks omit lengths entirely.
				combo := m.Tag
				if m.HasZone {
					combo |= colZoneBit
				}
				out.WriteByte(combo)
				if !c.RowMajor() {
					putUvarint(uint64(m.Len))
				}
				if m.HasZone {
					putVarint(m.Min)
					putUvarint(uint64(m.Max - m.Min))
				}
			}
		}
		st.RawBytes += c.ULen
		st.PayloadBytes += c.Len
	}
	if withCols {
		footStart = dst.Len()
		dst.Write(codec.Compress(nil, out.Bytes()))
		out = dst
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(out.Len()-footStart))
	out.Write(tmp[:4])
	out.Write(tailMagic[:])
	return st
}

// ErrNotSegment is what Open returns for a file that does not carry the
// segment magic: a legacy whole-blob leaf (raw codec output), which must be
// read through the codec directly.
var ErrNotSegment = errors.New("segment: not a segment file")

// openReadAhead is how many bytes Open reads off the end of the file in
// one go: enough to catch tail and footer together (a leaf's compressed
// footer is a few hundred bytes to a few KiB) — and the header too when the
// whole file is that small, as an epoch's leaf of a modest feed is. A DFS
// read costs a block fetch and its checksum whatever the range, so reading
// generously is cheaper than reading twice.
const openReadAhead = 64 << 10

// openBufs recycles Open's read-ahead buffers: nothing parsed out of one
// aliases it.
var openBufs = sync.Pool{New: func() any { return new([openReadAhead]byte) }}

// Reader opens a segment through ranged reads: construction costs one read
// off the end of the file that nearly always holds tail and footer, plus
// the 5-byte header unless the file is small enough for that read to hold
// it too — independent of segment size — and none at all from a footer
// ReadFooter read before (OpenFooter).
type Reader struct {
	src     io.ReaderAt
	codec   compress.Codec
	size    int64
	version byte
	chunks  []Chunk
}

// Open parses the segment footer from src. The codec must match the
// writer's. A file without the segment magic fails with ErrNotSegment.
func Open(src io.ReaderAt, size int64, codec compress.Codec) (*Reader, error) {
	foot, err := ReadFooter(src, size, codec)
	if err != nil {
		return nil, err
	}
	return OpenFooter(src, size, codec, foot)
}

// ReadFooter reads what Open parses off the end of a segment — checking
// its header, its tail and its footer's length, and inflating a v3 footer
// — and returns it in the form OpenFooter takes: the format version byte,
// the stored footer's length as a uvarint, then the footer as it parses.
// A reader that keeps that form (the engine keeps it beside the leaf's
// inflated chunks) opens the segment again without reading it.
func ReadFooter(src io.ReaderAt, size int64, codec compress.Codec) ([]byte, error) {
	if size < int64(headerLen+tailLen) {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrNotSegment, size)
	}
	buf := openBufs.Get().(*[openReadAhead]byte)
	defer openBufs.Put(buf)
	end := buf[:min(size, openReadAhead)]
	endOff := size - int64(len(end))
	if _, err := src.ReadAt(end, endOff); err != nil {
		return nil, fmt.Errorf("segment: read tail: %w", err)
	}
	hdr := end[:headerLen]
	if endOff > 0 {
		hdr = make([]byte, headerLen)
		if _, err := src.ReadAt(hdr, 0); err != nil {
			return nil, fmt.Errorf("segment: read header: %w", err)
		}
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return nil, fmt.Errorf("%w: magic %x", ErrNotSegment, hdr[:4])
	}
	version := hdr[4]
	if version < 1 || version > Version {
		return nil, compress.Corruptf("segment: unsupported version %d (have %d)", version, Version)
	}
	tail := end[len(end)-tailLen:]
	if !bytes.Equal(tail[4:], tailMagic[:]) {
		return nil, compress.Corruptf("segment: bad tail magic %x", tail[4:])
	}
	footLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if err := checkFootLen(footLen, size); err != nil {
		return nil, err
	}
	var foot []byte
	if footLen+tailLen <= int64(len(end)) {
		foot = end[int64(len(end))-tailLen-footLen : len(end)-tailLen]
	} else {
		foot = make([]byte, footLen)
		if _, err := src.ReadAt(foot, size-tailLen-footLen); err != nil {
			return nil, fmt.Errorf("segment: read footer: %w", err)
		}
	}
	out := binary.AppendUvarint([]byte{version}, uint64(footLen))
	if version < 3 {
		return append(out, foot...), nil
	}
	// v3 footers are block-compressed (the per-chunk column directories
	// dominate small segments stored plain).
	mark := len(out)
	out, err := codec.Decompress(out, foot)
	if err != nil {
		return nil, fmt.Errorf("segment: inflate footer: %w", err)
	}
	if n := len(out) - mark; n > maxFooter {
		return nil, compress.Corruptf("segment: footer inflates to %d bytes", n)
	}
	return out, nil
}

// checkFootLen refuses a stored footer length the segment cannot hold.
func checkFootLen(footLen, size int64) error {
	if footLen <= 0 || footLen > maxFooter || footLen > size-int64(headerLen+tailLen) {
		return compress.Corruptf("segment: footer of %d bytes out of range", footLen)
	}
	return nil
}

// OpenFooter is Open over the footer ReadFooter read from the same segment
// (the same src, size and codec): it reads nothing from src until a chunk
// is fetched. The Reader shares no bytes with foot.
func OpenFooter(src io.ReaderAt, size int64, codec compress.Codec, foot []byte) (*Reader, error) {
	if len(foot) == 0 || foot[0] < 1 || foot[0] > Version {
		return nil, compress.Corruptf("segment: footer of no known version")
	}
	version := foot[0]
	footLen, k := binary.Uvarint(foot[1:])
	if k <= 0 {
		return nil, compress.Corruptf("segment: footer length")
	}
	if err := checkFootLen(int64(footLen), size); err != nil {
		return nil, err
	}
	foot = foot[1+k:]
	r := &Reader{src: src, codec: codec, size: size, version: version}
	br := bytes.NewReader(foot)
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, compress.Corruptf("segment: footer count")
	}
	if n > uint64(len(foot)) { // each entry takes > 1 byte; cheap sanity cap
		return nil, compress.Corruptf("segment: footer claims %d chunks", n)
	}
	r.chunks = make([]Chunk, 0, n)
	dataEnd := size - tailLen - int64(footLen)
	for i := uint64(0); i < n; i++ {
		var c Chunk
		if c.Off, err = readUvarint64(br); err != nil {
			return nil, compress.Corruptf("segment: chunk %d offset", i)
		}
		if c.Len, err = readUvarint64(br); err != nil {
			return nil, compress.Corruptf("segment: chunk %d length", i)
		}
		if c.ULen, err = readUvarint64(br); err != nil {
			return nil, compress.Corruptf("segment: chunk %d ulen", i)
		}
		// Every row ends in a newline of the chunk's wire text.
		if c.Rows, err = readUvarint64(br); err != nil || c.Rows > c.ULen || c.Rows > MaxChunkRows {
			return nil, compress.Corruptf("segment: chunk %d rows", i)
		}
		var fixed [4 + 1 + 8 + 8]byte
		if _, err := io.ReadFull(br, fixed[:]); err != nil {
			return nil, compress.Corruptf("segment: chunk %d stats", i)
		}
		c.CRC = binary.LittleEndian.Uint32(fixed[0:4])
		c.Flags = fixed[4]
		c.MinTS = int64(binary.LittleEndian.Uint64(fixed[5:13]))
		c.MaxTS = int64(binary.LittleEndian.Uint64(fixed[13:21]))
		skLen := int64(SketchBytes) // v1: fixed-size sketch
		if version >= 2 {
			if skLen, err = readUvarint64(br); err != nil {
				return nil, compress.Corruptf("segment: chunk %d sketch length", i)
			}
			// Power-of-two sizing is what makes blooms foldable; reject
			// anything else before a later merge would fold it wrongly.
			if skLen > SketchBytes || (skLen != 0 && skLen&(skLen-1) != 0) {
				return nil, compress.Corruptf("segment: chunk %d sketch of %d bytes", i, skLen)
			}
		}
		if skLen > 0 {
			c.Sketch = make([]byte, skLen)
			if _, err := io.ReadFull(br, c.Sketch); err != nil {
				return nil, compress.Corruptf("segment: chunk %d sketch", i)
			}
		}
		// Off is at least headerLen, so dataEnd-c.Off cannot wrap; the
		// sum c.Off+c.Len could.
		if c.Off < headerLen || c.Len <= 0 || c.Len > dataEnd-c.Off {
			return nil, compress.Corruptf("segment: chunk %d spans [%d,+%d) outside data area", i, c.Off, c.Len)
		}
		if version >= 3 {
			ncols, err := readUvarint64(br)
			if err != nil || ncols == 0 || ncols > maxCols {
				return nil, compress.Corruptf("segment: chunk %d column count", i)
			}
			c.Cols = make([]ColMeta, ncols)
			off := int64(0)
			for j := range c.Cols {
				m := &c.Cols[j]
				combo, err := br.ReadByte()
				if err != nil || combo&^(colTagMask|colZoneBit) != 0 {
					return nil, compress.Corruptf("segment: chunk %d column %d tag byte", i, j)
				}
				m.Tag = combo & colTagMask
				if !c.RowMajor() {
					// Stream offsets are implied: each stream starts
					// where the previous ended in the inflated packed
					// concatenation (its size is only known after
					// decompression).
					if m.Len, err = readUvarint64(br); err != nil || m.Len > math.MaxInt64-off {
						return nil, compress.Corruptf("segment: chunk %d column %d length", i, j)
					}
					m.Off = off
					off += m.Len
				}
				if combo&colZoneBit != 0 {
					m.HasZone = true
					if m.Min, err = binary.ReadVarint(br); err != nil {
						return nil, compress.Corruptf("segment: chunk %d column %d zone min", i, j)
					}
					span, err := binary.ReadUvarint(br)
					if err != nil {
						return nil, compress.Corruptf("segment: chunk %d column %d zone span", i, j)
					}
					m.Max = m.Min + int64(span)
					if m.Min > m.Max {
						return nil, compress.Corruptf("segment: chunk %d column %d inverted zone", i, j)
					}
				}
			}
		}
		r.chunks = append(r.chunks, c)
	}
	return r, nil
}

func readUvarint64(br *bytes.Reader) (int64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil || v > math.MaxInt64 {
		return 0, compress.ErrCorrupt
	}
	return int64(v), nil
}

// Chunks exposes the chunk directory for pruning decisions.
func (r *Reader) Chunks() []Chunk { return r.chunks }

// NumChunks returns the chunk count.
func (r *Reader) NumChunks() int { return len(r.chunks) }

// Version reports the segment's format version (1-3).
func (r *Reader) Version() int { return int(r.version) }

// Columnar reports whether chunk payloads are column-major (v3).
func (r *Reader) Columnar() bool { return r.version >= 3 }

// ChunkBytes fetches, verifies and inflates chunk i to the form every
// decoder below starts from — the one form worth caching, whatever columns
// a reader goes on to want: the wire text of a row-major chunk (v1/v2, or
// a v3 row-text chunk), the packed column-stream concatenation of a v3
// columnar chunk. The read is ranged: only the chunk's payload travels.
func (r *Reader) ChunkBytes(i int) ([]byte, error) {
	if i < 0 || i >= len(r.chunks) {
		return nil, fmt.Errorf("segment: no chunk %d of %d", i, len(r.chunks))
	}
	c := r.chunks[i]
	payload := make([]byte, c.Len)
	if _, err := r.src.ReadAt(payload, c.Off); err != nil {
		return nil, fmt.Errorf("segment: read chunk %d: %w", i, err)
	}
	if crc32.ChecksumIEEE(payload) != c.CRC {
		return nil, compress.Corruptf("segment: chunk %d CRC mismatch", i)
	}
	var data []byte
	var err error
	if r.version >= 3 {
		data, err = r.codec.Decompress(nil, payload)
	} else {
		data, err = io.ReadAll(compress.NewStreamReader(r.codec, bytes.NewReader(payload)))
	}
	if err != nil {
		return nil, fmt.Errorf("segment: inflate chunk %d: %w", i, err)
	}
	want := c.ULen
	if r.packed(c) {
		want = 0
		for _, m := range c.Cols {
			if m.Off != want {
				return nil, compress.Corruptf("segment: chunk %d column streams not contiguous", i)
			}
			want += m.Len
		}
	}
	if int64(len(data)) != want {
		return nil, compress.Corruptf("segment: chunk %d inflated to %d bytes, footer says %d",
			i, len(data), want)
	}
	return data, nil
}

// packed reports whether the chunk's inflated bytes are packed column
// streams rather than wire text.
func (r *Reader) packed(c Chunk) bool { return r.version >= 3 && !c.RowMajor() }

// ChunkData returns chunk i's wire text. For a v3 columnar chunk every
// column stream decodes and the fields re-join — escaping is
// deterministic, so the reconstruction is bit-for-bit the text a row
// writer would have stored.
func (r *Reader) ChunkData(i int) ([]byte, error) {
	data, err := r.ChunkBytes(i)
	if err != nil {
		return nil, err
	}
	c := r.chunks[i]
	if !r.packed(c) {
		return data, nil
	}
	cols, wire, err := r.columnFields(i, c, data, nil)
	if err != nil {
		return nil, err
	}
	if wire != c.ULen {
		return nil, compress.Corruptf("segment: chunk %d reassembles to %d bytes, footer says %d",
			i, wire, c.ULen)
	}
	var b bytes.Buffer
	b.Grow(int(wire))
	for row := int64(0); row < c.Rows; row++ {
		for k := range cols {
			if k > 0 {
				b.WriteByte('|')
			}
			b.WriteString(cols[k][row])
		}
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// ChunkColumns fetches chunk i and materializes only the columns in want
// (schema positions) as escaped wire fields. It returns one field slice
// per requested column, in want order, plus the wire-text share of those
// fields — the selective-scan savings the profile counters report. Only
// valid for v3 segments.
func (r *Reader) ChunkColumns(i int, want []int) ([][]string, int64, error) {
	if r.version < 3 {
		return nil, 0, fmt.Errorf("segment: ChunkColumns on v%d segment", r.version)
	}
	data, err := r.ChunkBytes(i)
	if err != nil {
		return nil, 0, err
	}
	return r.columnFields(i, r.chunks[i], data, want)
}

// DecodeBatch decodes chunk i's inflated bytes (ChunkBytes, possibly served
// from a cache) into b, the caller's reusable column batch: the columns at
// cols (ascending positions in schema, the table's full schema; nil keeps
// every column) as typed arrays, every row selected. Packed column streams
// decode straight into the arrays, skipping the unwanted streams — string
// columns alias data, which must stay untouched while b is in use; wire
// text is parsed by telco.DecodeRows' single pass and loaded through the
// batch's row adapter. Each value equals what parsing the chunk's wire text
// would give. wire, the wire-text share of the decoded columns, is
// meaningful only with countWire set: the count costs packed delta columns
// a second walk, so only a caller that reports it asks.
func (r *Reader) DecodeBatch(i int, data []byte, schema *telco.Schema, cols []int, b *telco.Batch, countWire bool) (wire int64, err error) {
	if i < 0 || i >= len(r.chunks) {
		return 0, fmt.Errorf("segment: no chunk %d of %d", i, len(r.chunks))
	}
	c := r.chunks[i]
	if !r.packed(c) {
		rows, wire, err := telco.DecodeRows(schema, cols, data)
		if err != nil {
			return 0, err
		}
		if int64(len(rows)) != c.Rows {
			return 0, compress.Corruptf("segment: chunk %d holds %d rows, footer says %d", i, len(rows), c.Rows)
		}
		b.SetRows(schema, cols, rows, false)
		return wire, nil
	}
	if len(c.Cols) != schema.NumFields() {
		return 0, compress.Corruptf("segment: chunk %d has %d columns, schema %q has %d",
			i, len(c.Cols), schema.Name, schema.NumFields())
	}
	n := int(c.Rows)
	b.Reset(schema, cols, n)
	for k := range b.Cols {
		col := k
		if cols != nil {
			col = cols[k]
		}
		m := c.Cols[col]
		if m.Off < 0 || m.Len > int64(len(data))-m.Off {
			return 0, compress.Corruptf("segment: chunk %d column %d outside its %d inflated bytes", i, col, len(data))
		}
		w, err := compress.DecodeColumnBatch(&b.Cols[k], m.Tag, data[m.Off:m.Off+m.Len], n, countWire)
		if err != nil {
			return 0, fmt.Errorf("segment: chunk %d column %d: %w", i, col, err)
		}
		wire += w
	}
	return wire, nil
}

// columnFields decodes the selected columns of a v3 chunk's inflated bytes
// (every column when want is nil) as escaped wire fields, plus their
// wire-text share. Row-text chunks split the wire text instead — the
// caller-visible result is identical.
func (r *Reader) columnFields(i int, c Chunk, data []byte, want []int) ([][]string, int64, error) {
	if want == nil {
		want = make([]int, len(c.Cols))
		for k := range want {
			want[k] = k
		}
	}
	for _, col := range want {
		if col < 0 || col >= len(c.Cols) {
			return nil, 0, fmt.Errorf("segment: chunk %d has no column %d", i, col)
		}
	}
	out := make([][]string, len(want))
	if c.RowMajor() {
		for k := range out {
			out[k] = make([]string, 0, c.Rows)
		}
		rows := int64(0)
		for start := 0; start < len(data); {
			end := bytes.IndexByte(data[start:], '\n')
			if end < 0 {
				return nil, 0, compress.Corruptf("segment: chunk %d unterminated row", i)
			}
			fields := telco.SplitFields(string(data[start : start+end]))
			if len(fields) != len(c.Cols) {
				return nil, 0, compress.Corruptf("segment: chunk %d row has %d fields, want %d",
					i, len(fields), len(c.Cols))
			}
			for k, col := range want {
				out[k] = append(out[k], fields[col])
			}
			rows++
			start += end + 1
		}
		if rows != c.Rows {
			return nil, 0, compress.Corruptf("segment: chunk %d holds %d rows, footer says %d",
				i, rows, c.Rows)
		}
		return out, inflatedOf(out), nil
	}
	for k, col := range want {
		m := c.Cols[col]
		// The footer's row count is checked only by the decode: the
		// capacity hint is bounded by the bytes actually inflated.
		vals, err := compress.DecodeColumn(make([]string, 0, min(c.Rows, int64(len(data)))), m.Tag,
			data[m.Off:m.Off+m.Len], int(c.Rows))
		if err != nil {
			return nil, 0, fmt.Errorf("segment: chunk %d column %d: %w", i, col, err)
		}
		out[k] = vals
	}
	return out, inflatedOf(out), nil
}

// inflatedOf sums the wire-text share of materialized fields — the
// selective-scan savings the profile counters report.
func inflatedOf(cols [][]string) int64 {
	n := int64(0)
	for _, vals := range cols {
		for _, v := range vals {
			n += int64(len(v)) + 1 // field + its separator share of the wire text
		}
	}
	return n
}
