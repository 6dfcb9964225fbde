package segment

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"

	"spate/internal/compress"
)

// ColumnWriter renders a v3 column-major segment: rows arrive as escaped
// wire fields, accumulate per column, and each chunk flush packs every
// column with the encoding its statistics select (dict+RLE, delta, or raw
// join), then block-compresses the packed concatenation — the chunk's only
// codec pass — so the codec keeps one shared context across columns. Like
// Writer it is not safe for concurrent use; ingest runs one writer per table
// worker.
type ColumnWriter struct {
	codec     compress.Codec
	chunkSize int
	ncols     int

	out     *bytes.Buffer
	cols    [][]string // accumulated escaped fields, per column
	curSize int        // wire-text bytes the accumulated rows reconstruct to

	// packed and blob are one chunk's packed concatenation and its
	// compressed form, reused from chunk to chunk.
	packed, blob []byte

	chunks []Chunk

	// current chunk stats (same bookkeeping as Writer)
	rows  int64
	minTS int64
	maxTS int64
	flags byte
	cells map[int64]struct{}

	stats       []ColumnStat
	statsChunks int
	finished    bool
}

// ColumnStat summarizes how one column encoded across a segment's chunks —
// the observability feed for codec-selection stats.
type ColumnStat struct {
	// Plain, Dict and Delta count the chunks encoded with each codec.
	Plain, Dict, Delta int
	// EntropyBits is the mean per-chunk Shannon entropy of the column's
	// value distribution (0 when every chunk exceeded the dictionary
	// cardinality cap and skipped the measurement).
	EntropyBits float64
}

// NewColumnWriter returns a v3 writer for tables of ncols columns. A
// non-positive chunkSize selects DefaultChunkSize.
func NewColumnWriter(codec compress.Codec, chunkSize, ncols int) *ColumnWriter {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	w := &ColumnWriter{
		codec:     codec,
		chunkSize: chunkSize,
		ncols:     ncols,
		out:       bufPool.Get().(*bytes.Buffer),
		cols:      make([][]string, ncols),
		cells:     make(map[int64]struct{}),
		stats:     make([]ColumnStat, ncols),
	}
	w.out.Reset()
	w.out.Write(magic[:])
	w.out.WriteByte(Version)
	w.resetChunkStats()
	return w
}

func (w *ColumnWriter) resetChunkStats() {
	w.rows = 0
	w.minTS = math.MaxInt64
	w.maxTS = math.MinInt64
	w.flags = 0
	clear(w.cells)
	for i := range w.cols {
		w.cols[i] = w.cols[i][:0]
	}
	w.curSize = 0
}

// AppendRowFields adds one record's escaped wire fields (one per column,
// exactly what telco.Record.AppendFields renders) with its pruning
// metadata. Field order must match the schema; rows are stored in append
// order, so the segment reconstructs the table's wire form exactly.
func (w *ColumnWriter) AppendRowFields(fields []string, m RowMeta) error {
	if w.finished {
		return fmt.Errorf("segment: append after Finish")
	}
	if len(fields) != w.ncols {
		return fmt.Errorf("segment: row has %d fields, writer wants %d", len(fields), w.ncols)
	}
	for i, f := range fields {
		w.cols[i] = append(w.cols[i], f)
		w.curSize += len(f)
	}
	w.curSize += w.ncols // ncols-1 separators + newline
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
	if w.curSize >= w.chunkSize {
		return w.flushChunk()
	}
	return nil
}

func (w *ColumnWriter) flushChunk() error {
	if w.rows == 0 {
		return nil
	}
	off := int64(w.out.Len())
	metas := make([]ColMeta, w.ncols)
	packed := w.packed[:0]
	for i, vals := range w.cols {
		// One walk per column yields its codec, entropy and integer zone;
		// the layout is settled before the block codec sees a byte.
		choice := compress.ChooseColumn(vals)
		streamOff := int64(len(packed))
		var err error
		packed, err = compress.EncodeColumn(packed, choice.Tag, vals)
		if err != nil {
			return fmt.Errorf("segment: encode column %d: %w", i, err)
		}
		metas[i] = ColMeta{
			Tag: choice.Tag, Off: streamOff, Len: int64(len(packed)) - streamOff,
			HasZone: choice.IntZone, Min: choice.Min, Max: choice.Max,
		}
		st := &w.stats[i]
		st.EntropyBits += choice.EntropyBits
		switch choice.Tag {
		case compress.ColDict:
			st.Dict++
		case compress.ColDelta:
			st.Delta++
		default:
			st.Plain++
		}
	}
	w.statsChunks++
	// The chunk's one block-codec pass, over the packed concatenation:
	// column offsets index the inflated block, so selective reads inflate
	// once and parse only the streams they need.
	w.blob = w.codec.Compress(w.blob[:0], packed)
	w.packed = packed
	w.out.Write(w.blob)
	payload := w.out.Bytes()[off:]
	var sk []byte
	if w.flags&flagNoCell == 0 && len(w.cells) > 0 {
		sk = make([]byte, sketchSizeFor(len(w.cells)))
		for id := range w.cells {
			sketchSet(sk, id)
		}
	}
	w.chunks = append(w.chunks, Chunk{
		Off:    off,
		Len:    int64(len(payload)),
		ULen:   int64(w.curSize),
		Rows:   w.rows,
		CRC:    crc32.ChecksumIEEE(payload),
		Flags:  w.flags,
		MinTS:  w.minTS,
		MaxTS:  w.maxTS,
		Sketch: sk,
		Cols:   metas,
	})
	w.resetChunkStats()
	return nil
}

// Finish flushes the last chunk, appends the v3 footer and returns the
// rendered segment.
func (w *ColumnWriter) Finish() ([]byte, Stats, error) {
	if w.finished {
		return nil, Stats{}, fmt.Errorf("segment: double Finish")
	}
	w.finished = true
	if err := w.flushChunk(); err != nil {
		return nil, Stats{}, err
	}
	st := writeFooter(w.out, w.chunks, w.codec)
	if w.statsChunks > 0 {
		for i := range w.stats {
			w.stats[i].EntropyBits /= float64(w.statsChunks)
		}
	}
	data := append([]byte(nil), w.out.Bytes()...)
	bufPool.Put(w.out)
	w.out = nil
	return data, st, nil
}

// ColumnStats reports the per-column codec choices and entropy after
// Finish, in schema order.
func (w *ColumnWriter) ColumnStats() []ColumnStat { return w.stats }
