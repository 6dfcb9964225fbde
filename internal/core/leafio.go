package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spate/internal/dfs"
	"spate/internal/highlights"
	"spate/internal/scanspec"
	"spate/internal/segment"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// This file is the engine's leaf I/O layer: the write path that renders a
// snapshot table into its on-disk leaf form (a chunked segment), and the
// read path that streams a stored leaf back out as typed rows of just the
// columns a scan projects, pruning segment chunks by window and cell
// candidates before paying for decompression. Segments and the legacy
// whole-blob leaves older writers left behind flow through the same scan
// entry point, so recovery, queries, SQL scans and the cluster RPC handlers
// never care which one a file carries.

// encBufPool recycles wire-text accumulation buffers across the per-table
// encode workers — two tables per epoch forever would otherwise churn the
// allocator with multi-megabyte buffers.
var encBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// encodedLeaf is one table rendered to its on-disk leaf form by an encode
// worker, with the worker's own stage times.
type encodedLeaf struct {
	name string
	data []byte // the segment file
	raw  int64  // uncompressed wire-text bytes

	// colNames and colStats report the v3 per-column codec choices and
	// entropy for the ingest stats feed (nil for v2 leaves).
	colNames []string
	colStats []segment.ColumnStat

	encodeNS   int64
	compressNS int64

	err error
}

// encodeLeafTable renders one snapshot table into its leaf bytes. It is
// the body of an ingest encode worker and touches no engine state. Every
// row is rendered once:
// to escaped fields for a v3 leaf, to wire text for the row-major forms.
func (e *Engine) encodeLeafTable(s *snapshot.Snapshot, name string) encodedLeaf {
	out := encodedLeaf{name: name}
	tab := s.Table(name)
	if tab == nil {
		out.err = fmt.Errorf("no table %q", name)
		return out
	}

	// Cluster rows by timestamp before rendering: records do not arrive
	// time-ordered within an epoch, and chunk zone maps only prune when
	// each chunk covers a narrow slice of the epoch's half hour. The sort
	// is stable and in place, so the in-memory table (summary folds), the
	// wire text and the stored leaf all agree on one canonical order.
	t0 := time.Now()
	tsIdx := tab.Schema.FieldIndex(telco.AttrTS)
	cellIdx := tab.Schema.FieldIndex(telco.AttrCellID)
	if tsIdx >= 0 {
		slices.SortStableFunc(tab.Rows, func(x, y telco.Record) int {
			a, b := x[tsIdx], y[tsIdx]
			if a.IsNull() || b.IsNull() {
				return 0
			}
			return a.Time().Compare(b.Time())
		})
	}
	columnar := e.opts.SegmentVersion != segment.RowVersion

	// A v2 leaf compresses the table's wire text, so it renders all of it;
	// a v3 leaf renders its fields in the segment write instead.
	buf := encBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		encBufPool.Put(buf)
	}()
	buf.Reset()
	var ends []int // each row's end offset in buf
	if !columnar {
		var lb strings.Builder
		for _, r := range tab.Rows {
			lb.Reset()
			r.EncodeLine(&lb)
			lb.WriteByte('\n')
			buf.WriteString(lb.String())
			ends = append(ends, buf.Len())
		}
	}
	out.encodeNS = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	c := e.opts.Codec
	var st segment.Stats
	if !columnar {
		w := segment.NewWriter(c, e.opts.ChunkSize)
		text := buf.Bytes()
		start := 0
		for i, r := range tab.Rows {
			if out.err = w.AppendRow(text[start:ends[i]], rowMetaOf(r, tsIdx, cellIdx)); out.err != nil {
				return out
			}
			start = ends[i]
		}
		out.data, st, out.err = w.Finish()
	} else {
		// v3 column-major segment: the same rows in the same canonical
		// order, stored as per-column streams of escaped wire fields.
		w := segment.NewColumnWriter(c, e.opts.ChunkSize, tab.Schema.NumFields())
		fields := make([]string, 0, tab.Schema.NumFields())
		for _, r := range tab.Rows {
			fields = r.AppendFields(fields[:0])
			if out.err = w.AppendRowFields(fields, rowMetaOf(r, tsIdx, cellIdx)); out.err != nil {
				return out
			}
		}
		out.data, st, out.err = w.Finish()
		out.colNames = tab.Schema.FieldNames()
		out.colStats = w.ColumnStats()
	}
	out.raw = st.RawBytes
	out.compressNS = time.Since(t0).Nanoseconds()
	return out
}

// maxPruneCells caps the cell candidate list handed to chunk sketches: a
// box covering more cells than this probes the bloom filter so often that
// scanning the chunk is cheaper, so spatial chunk pruning switches off and
// the per-row filter alone applies.
const maxPruneCells = 512

// leafPrune carries a scan's chunk-level predicates. The zero value prunes
// nothing (every chunk decompresses), which is what summary rebuilds need.
type leafPrune struct {
	// window skips chunks whose [MinTS, MaxTS] cannot intersect it; nil
	// applies no temporal pruning.
	window *scanspec.TimeWindow
	// spatial marks an active box filter; cells lists the candidate cell
	// ids inside the box (possibly none — then only chunks holding rows
	// without cell ids survive).
	spatial bool
	cells   []int64
}

// pruneReason says which chunk predicate fired: the timestamp zone map,
// the cell-id bloom sketch, or a pushed-down predicate's column zone map.
type pruneReason int

const (
	pruneNone pruneReason = iota
	pruneZone
	pruneBloom
	prunePred
)

// skip reports whether a chunk provably holds no row the scan's per-row
// filters would keep, and which predicate proved it. It is conservative:
// metadata-less rows defeat it.
func (pr leafPrune) skip(ch segment.Chunk) pruneReason {
	if !ch.OverlapsWindow(pr.window) {
		return pruneZone
	}
	if pr.spatial {
		if len(pr.cells) == 0 {
			if !ch.HasCellGaps() {
				return pruneBloom
			}
			return pruneNone
		}
		if !ch.MayContainAnyCell(pr.cells) {
			return pruneBloom
		}
	}
	return pruneNone
}

// chunkCacheKey names one inflated chunk in the leaf cache; decay and
// compaction invalidate by the "<ref>#" prefix. The cache holds each chunk
// once, in the form segment.Reader.ChunkBytes inflates it to — every
// projection decodes from the same bytes — so the key carries no column
// set. It does pin the segment format version: a leaf rewritten under
// another layout (a v2→v3 compaction upgrade) can never be served a stale
// chunk of the old one.
func chunkCacheKey(ref string, version, i int) string {
	return ref + "#v" + strconv.Itoa(version) + "." + strconv.Itoa(i)
}

// legacyCacheSuffix keys a legacy whole-blob leaf's inflated text under the
// same "<ref>#" prefix segment chunks use, so prefix invalidation covers
// both formats.
const legacyCacheSuffix = "#blob"

// footCacheSuffix keys a segment leaf's footer, in the form
// segment.ReadFooter returns it (version byte and inflated footer), under
// the same prefix: a scan that finds it opens the leaf without a DFS read.
const footCacheSuffix = "#foot"

// dropChunks evicts every cached chunk of the leaf file ref — decay and
// compaction delete leaf files, and their inflated chunks must not linger.
func (e *Engine) dropChunks(ref string) {
	prefix := ref + "#"
	e.chunkCache.DropIf(func(key string, _ []byte) bool { return strings.HasPrefix(key, prefix) })
}

// projection is the column subset of one stored table a scan reads. Every
// source of rows — v3 column streams, row-text chunks, v1/v2 chunks, legacy
// blobs, memtable tables — reaches the scan's consumer as a column batch
// laid out as out, so consumers index columns by out.FieldIndex, never by
// the stored table's positions.
type projection struct {
	full *telco.Schema // the stored table's schema
	out  *telco.Schema // layout of the rows handed out: full.Project(cols)
	cols []int         // ascending positions in full; nil = every column
}

// newProjection keeps the named columns of full (names it does not have
// are ignored); all keeps every column.
func newProjection(full *telco.Schema, names []string, all bool) projection {
	p := projection{full: full, out: full}
	if all {
		return p
	}
	need := make(map[int]bool, len(names))
	for _, name := range names {
		if i := full.FieldIndex(name); i >= 0 {
			need[i] = true
		}
	}
	if len(need) == full.NumFields() {
		return p
	}
	p.cols = make([]int, 0, len(need))
	for i := range need {
		p.cols = append(p.cols, i)
	}
	sort.Ints(p.cols)
	p.out = full.Project(p.cols)
	return p
}

// width is the number of columns the projection keeps.
func (p *projection) width() int { return p.out.NumFields() }

// table wraps rows already in the projection's layout.
func (p *projection) table(rows []telco.Record) *telco.Table {
	return &telco.Table{Schema: p.out, Rows: rows}
}

// specScan is the schema-resolved view of a row scan: the projection its
// rows come out in and, under a pushdown spec, each predicate's position
// and compiled form. The row path treats the spec as a prefilter — the SQL
// engine re-evaluates its WHERE clause — so unresolvable predicates are
// skipped (kept rows stay a superset).
type specScan struct {
	projection
	spec    *ScanSpec   // nil: every column, no prefilter
	predCol []int       // position in full per spec predicate, -1 when absent
	preds   []batchPred // the resolvable predicates, compiled against out
}

// newSpecScan resolves spec against the stored table's schema. The scan
// materializes the spec's referenced columns plus the timestamp, which the
// engine's own row-level window filter reads.
func newSpecScan(spec *ScanSpec, schema *telco.Schema) *specScan {
	if spec == nil {
		return &specScan{projection: newProjection(schema, nil, true)}
	}
	ss := &specScan{
		projection: newProjection(schema, append(spec.Referenced(), telco.AttrTS), spec.Columns == nil),
		spec:       spec,
	}
	ss.predCol = make([]int, len(spec.Preds))
	for i, p := range spec.Preds {
		ss.predCol[i] = schema.FieldIndex(p.Col)
		if ci := ss.out.FieldIndex(p.Col); ci >= 0 {
			ss.preds = append(ss.preds, compilePred(p, ci))
		}
	}
	return ss
}

// zonePrune reports whether a v3 chunk's per-column integer zone maps prove
// one of preds unsatisfiable for every row. predCol holds each predicate's
// position in the stored schema full; predicates the table cannot resolve
// (-1) or whose column is not an integer decide nothing.
func zonePrune(preds []scanspec.Pred, predCol []int, full *telco.Schema, ch *segment.Chunk) bool {
	for pi, p := range preds {
		ci := predCol[pi]
		if ci < 0 || ci >= len(ch.Cols) || full.Fields[ci].Kind != telco.KindInt {
			continue
		}
		if cm := ch.Cols[ci]; cm.HasZone && p.ZonePrune(cm.Min, cm.Max) {
			return true
		}
	}
	return false
}

// prune is the row scan's own chunk test: the spec's predicates against
// the column zone maps.
func (ss *specScan) prune(ch *segment.Chunk) pruneReason {
	if ss.spec != nil && zonePrune(ss.spec.Preds, ss.predCol, ss.full, ch) {
		return prunePred
	}
	return pruneNone
}

// cachedChunk returns the inflated bytes the chunk cache holds under key,
// fetching them on a miss. Misses dedupe through the cache's singleflight:
// when another goroutine — a sibling scan worker, a concurrent query — is
// already fetching the key, the call waits and shares its bytes. leader
// reports that this caller ran fetch itself; it alone charges what the
// fetch cost to its profile (the lookup up to the fetch included), hits
// charge the lookup and sharers nothing.
func (e *Engine) cachedChunk(key string, prof *Profile, fetch func() ([]byte, error)) (data []byte, leader bool, err error) {
	var t0 time.Time
	if prof != nil {
		t0 = time.Now()
	}
	data, shared, err := e.chunkCache.Do(key, func() ([]byte, error) {
		leader = true
		if prof != nil {
			prof.LookupNS += time.Since(t0).Nanoseconds()
		}
		return fetch()
	})
	if shared {
		e.met.sfShared.Inc()
	}
	if prof != nil {
		if !leader && !shared {
			prof.LookupNS += time.Since(t0).Nanoseconds()
			prof.CacheHits++
		} else {
			prof.CacheMisses++
		}
	}
	return data, leader && err == nil, err
}

// blobText returns a legacy whole-blob leaf's inflated wire text through
// the chunk cache, accruing I/O costs into prof.
func (e *Engine) blobText(ref string, prof *Profile) ([]byte, error) {
	text, leader, err := e.cachedChunk(ref+legacyCacheSuffix, prof, func() ([]byte, error) {
		t0 := time.Now()
		comp, err := e.fs.ReadFile(ref)
		if err != nil {
			return nil, fmt.Errorf("core: read %s: %w", ref, err)
		}
		t1 := time.Now()
		text, err := e.opts.Codec.Decompress(nil, comp)
		if err != nil {
			return nil, fmt.Errorf("core: decompress %s: %w", ref, err)
		}
		if prof != nil {
			prof.DFSReads++
			prof.ReadNS += t1.Sub(t0).Nanoseconds()
			prof.DecodeNS += time.Since(t1).Nanoseconds()
		}
		return text, nil
	})
	if leader {
		e.met.leafBytes.Add(int64(len(text)))
		if prof != nil {
			prof.InflatedBytes += int64(len(text))
		}
	}
	return text, err
}

// chunkBatch decodes chunk i's columns under proj into b. The chunk's
// inflated bytes come through the chunk cache — one entry per chunk, shared
// by every projection — and the typed decode of the wanted columns then
// runs per caller, on a hit as on a miss; b's string columns alias the
// cached bytes, which nothing ever writes to. The miss's leader charges the
// inflated bytes and decoded columns to its profile, and only its decode
// counts the columns' wire bytes.
func (e *Engine) chunkBatch(r *segment.Reader, ref string, i int, proj *projection, prof *Profile, b *telco.Batch) error {
	data, leader, err := e.cachedChunk(chunkCacheKey(ref, r.Version(), i), prof, func() ([]byte, error) {
		t0 := time.Now()
		data, err := r.ChunkBytes(i)
		if err != nil {
			return nil, fmt.Errorf("core: read %s: %w", ref, err)
		}
		if prof != nil {
			// The chunk fetch issues one ranged DFS read and inflates in
			// one step; both land in the read phase.
			prof.DFSReads++
			prof.ReadNS += time.Since(t0).Nanoseconds()
		}
		return data, nil
	})
	if err != nil {
		return err
	}
	var t0 time.Time
	if prof != nil {
		t0 = time.Now()
	}
	wire, err := r.DecodeBatch(i, data, proj.full, proj.cols, b, leader && r.Columnar())
	if prof != nil {
		prof.DecodeNS += time.Since(t0).Nanoseconds()
	}
	if err != nil {
		return fmt.Errorf("core: decode %s: %w", ref, err)
	}
	if leader {
		if !r.Columnar() {
			// A v1/v2 chunk has no column streams to leave untouched: all
			// of its text came out of the codec, whatever the scan kept.
			wire = int64(len(data))
		}
		e.met.leafBytes.Add(wire)
		if prof != nil {
			prof.InflatedBytes += wire
			if ncols := len(r.Chunks()[i].Cols); ncols > 0 {
				prof.ColumnsDecoded += proj.width()
				prof.ColumnsSkipped += ncols - proj.width()
			}
		}
	}
	return nil
}

// leafSink is where a leaf walk's rows go. The walk consults it chunk by
// chunk: prune says whether the chunk's metadata, beyond the scan's window
// and cell candidates, proves no row passes; layout names the projection
// the chunk decodes under, or nil when the sink answered the chunk from its
// metadata alone; rows takes the decoded column batch, laid out as layout
// said and valid until rows returns. A legacy whole-blob leaf has no
// metadata: it is never pruned and reaches layout as a nil chunk.
type leafSink interface {
	prune(ch *segment.Chunk) pruneReason
	layout(ch *segment.Chunk) *projection
	rows(p *projection, b *telco.Batch) error
}

// rowSink is the sink of the one exact-row loop (scanRows), which every
// row read runs — Explore's rows, SQL scans, a shard's row answers — and
// which feeds it every sealed chunk and every unsealed memtable table
// alike: it narrows each batch's selection by the row-level time filter,
// the spec's compiled predicates and the query box, and only then
// materializes the surviving rows, as records in the scan's projected
// layout appended to dst.
type rowSink struct {
	*specScan
	tf      timeFilter
	tsIdx   int            // timestamp column in the layout, -1 when absent
	inBox   map[int64]bool // nil = no spatial filter
	cellIdx int            // cell id column in the layout, -1 when absent
	dst     *telco.Table
}

// newRowSink builds the sink of one row scan filtered by tf into dst;
// inBox is the query box's cell membership, nil for the zero box.
func newRowSink(ss *specScan, tf timeFilter, inBox map[int64]bool, dst *telco.Table) rowSink {
	return rowSink{
		specScan: ss,
		tf:       tf,
		tsIdx:    ss.out.FieldIndex(telco.AttrTS),
		inBox:    inBox,
		cellIdx:  ss.out.FieldIndex(telco.AttrCellID),
		dst:      dst,
	}
}

func (s rowSink) layout(*segment.Chunk) *projection { return &s.projection }

func (s rowSink) rows(_ *projection, b *telco.Batch) error {
	s.tf.filter(b, s.tsIdx)
	for i := range s.preds {
		s.preds[i].filter(b)
	}
	if s.inBox != nil && s.cellIdx >= 0 {
		// Rows of tables without a cell id always pass; a null cell id reads
		// as cell 0, as it does in a record.
		cell := b.Cols[s.cellIdx].Ints
		b.Keep(func(i int) bool { return s.inBox[cell[i]] })
	}
	s.dst.Rows = b.AppendRecords(s.dst.Rows)
	return nil
}

// foldSink is the summary rebuild's sink: every chunk's batch goes to one
// highlight fold per stored table, which writes the summary once the leaf
// is walked.
type foldSink struct {
	proj projection
	fold *highlights.Folder
}

func (s foldSink) prune(*segment.Chunk) pruneReason         { return pruneNone }
func (s foldSink) layout(*segment.Chunk) *projection        { return &s.proj }
func (s foldSink) rows(_ *projection, b *telco.Batch) error { s.fold.Add(b); return nil }

// openSegment opens the segment leaf f stored at ref from its footer in the
// chunk cache, reading the footer off the DFS only on a miss (a legacy
// blob's ErrNotSegment is not kept: no engine writes those any more).
func (e *Engine) openSegment(ref string, f *dfs.File) (*segment.Reader, error) {
	foot, _, err := e.chunkCache.Do(ref+footCacheSuffix, func() ([]byte, error) {
		return segment.ReadFooter(f, f.Size(), e.opts.Codec)
	})
	if err != nil {
		return nil, err
	}
	return segment.OpenFooter(f, f.Size(), e.opts.Codec, foot)
}

// walkLeaf is the one leaf loop every scan runs: it streams a stored leaf
// table into sink. Segment files are pruned chunk by chunk — by window and
// cell candidates, then by whatever the sink's own metadata tests prove —
// and only surviving chunks are fetched (ranged), inflated and decoded —
// just the columns of the sink's layout, into one pooled column batch the
// sink sees chunk after chunk; a chunk the sink answers from metadata is
// never fetched. The sink sees chunks in row order. Legacy whole-blob
// leaves decompress in full, as one chunk. Inflated chunks, and a segment
// leaf's footer, are served from and installed into the engine's chunk
// cache, so a leaf scanned before opens without a DFS read. The chunks
// scanned and pruned count in the fleet counters (a legacy blob counts as
// one scanned chunk); a non-nil prof accrues the per-query cost split
// (prune reasons, cache hits, inflated bytes, ranged reads, phase timings).
func (e *Engine) walkLeaf(ref string, pr leafPrune, sink leafSink, prof *Profile) error {
	var scanned, pruned int
	defer func() {
		e.met.chunksScanned.Add(int64(scanned))
		e.met.chunksPruned.Add(int64(pruned))
		if prof != nil {
			prof.ChunksScanned += scanned
		}
	}()
	f, err := e.fs.Open(ref)
	if err != nil {
		return fmt.Errorf("core: open %s: %w", ref, err)
	}
	b := e.getBatch()
	defer e.putBatch(b)
	r, err := e.openSegment(ref, f)
	if errors.Is(err, segment.ErrNotSegment) {
		// Legacy whole-blob leaf: no chunk metadata exists, so the whole
		// table inflates regardless of the scan's predicates.
		text, err := e.blobText(ref, prof)
		if err != nil {
			return err
		}
		p := sink.layout(nil)
		rows, _, err := telco.DecodeRows(p.full, p.cols, text)
		if err != nil {
			return fmt.Errorf("core: decode %s: %w", ref, err)
		}
		b.SetRows(p.full, p.cols, rows, false)
		scanned = 1
		return sink.rows(p, b)
	}
	if err != nil {
		return fmt.Errorf("core: open segment %s: %w", ref, err)
	}
	chunks := r.Chunks()
	for i := range chunks {
		ch := &chunks[i]
		reason := pr.skip(*ch)
		if reason == pruneNone {
			reason = sink.prune(ch)
		}
		if reason != pruneNone {
			pruned++
			if prof != nil {
				switch reason {
				case pruneZone:
					prof.ChunksPrunedZone++
				case pruneBloom:
					prof.ChunksPrunedBloom++
				default:
					prof.ChunksPrunedPred++
				}
			}
			continue
		}
		p := sink.layout(ch)
		if p == nil {
			scanned++
			if prof != nil {
				prof.ChunksAggMeta++
				prof.ColumnsSkipped += len(ch.Cols)
			}
			continue
		}
		if err := e.chunkBatch(r, ref, i, p, prof, b); err != nil {
			return err
		}
		scanned++
		if err := sink.rows(p, b); err != nil {
			return err
		}
	}
	return nil
}
