package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"spate/internal/index"
	"spate/internal/segment"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// The segment compactor rewrites stored leaves without changing what they
// say: a legacy whole-blob leaf becomes a chunked SPSG segment (so window
// and cell pruning start working on it), and a segment fragmented into
// undersized chunks merges back toward the target chunk size (fewer footer
// entries, fewer compression-stream restarts). Both rewrites reproduce the
// leaf's wire text byte for byte — the inflated concatenation of the new
// file equals the old one — so every query answer is bit-for-bit
// unchanged.

// CompactOptions bounds one compaction sweep.
type CompactOptions struct {
	// MaxLeaves caps how many leaves one sweep may rewrite (0 = no cap);
	// the remainder waits for the next run.
	MaxLeaves int
	// ChunkSize is the rewrite target in uncompressed bytes per chunk
	// (0: the engine's configured chunk size).
	ChunkSize int
}

// CompactReport describes one compaction sweep. Byte counts cover
// rewritten leaves only.
type CompactReport struct {
	LeavesExamined   int
	LeavesRewritten  int
	BlobsConverted   int   // legacy whole-blob tables converted to segments
	SegmentsUpgraded int   // row-major (v1/v2) segments upgraded to columnar v3
	ChunksMerged     int   // net chunk-count reduction across merged segments
	TablesKept       int   // rewrites dropped: the new layout compressed the rows worse
	BytesBefore      int64 // compressed bytes of rewritten tables, before
	BytesAfter       int64
}

// compactCandidate snapshots one leaf under the read lock.
type compactCandidate struct {
	node  *index.Node
	epoch telco.Epoch
	refs  map[string]string
}

// Compact sweeps stored leaves, rewriting those that benefit. Like decay
// it holds the engine lock only in short bursts: candidate discovery under
// RLock, the ref swap per leaf under a brief write lock, and all DFS I/O
// with no engine lock held at all. Sweeps serialize with decay via
// decayMu. A leaf that decays between discovery and swap is skipped; its
// freshly written files are removed again.
func (e *Engine) Compact(ctx context.Context, opts CompactOptions) (CompactReport, error) {
	e.decayMu.Lock()
	defer e.decayMu.Unlock()
	var rep CompactReport

	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = e.opts.ChunkSize
	}

	e.mu.RLock()
	var cands []compactCandidate
	e.tree.Walk(func(n *index.Node) bool {
		if n.IsLeaf() && !n.Decayed && len(n.DataRefs) > 0 {
			refs := make(map[string]string, len(n.DataRefs))
			for name, ref := range n.DataRefs {
				refs[name] = ref
			}
			cands = append(cands, compactCandidate{node: n, epoch: n.Epoch, refs: refs})
		}
		return true
	})
	e.mu.RUnlock()

	for _, cand := range cands {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if opts.MaxLeaves > 0 && rep.LeavesRewritten >= opts.MaxLeaves {
			break
		}
		rep.LeavesExamined++
		if err := e.compactLeaf(cand, chunkSize, &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// rewrittenTable is one table's pending rewrite within a leaf.
type rewrittenTable struct {
	name      string
	oldRef    string
	newRef    string
	oldSize   int64
	data      []byte
	wasBlob   bool
	wasRowSeg bool // row-major segment upgraded to columnar v3
	oldCount  int  // chunk count before (blobs count 1)
	newCount  int

	// oldPayload and newPayload are the compressed bytes the table's rows
	// take before and after, footers aside (a legacy blob is all payload).
	oldPayload, newPayload int64
}

func (e *Engine) compactLeaf(cand compactCandidate, chunkSize int, rep *CompactReport) error {
	var rewrites []rewrittenTable
	for name, ref := range cand.refs {
		rw, err := e.planRewrite(name, ref, chunkSize)
		if err != nil {
			return err
		}
		if rw == nil {
			continue
		}
		// A rewrite changes how a table is laid out and pays a footer for
		// it, knowingly; it must not also make the rows themselves compress
		// worse. That can happen to a table of a few rows. Every older
		// layout stays readable, so such a table is kept as stored; a later
		// sweep weighs it again.
		if rw.newPayload > rw.oldPayload {
			rep.TablesKept++
			continue
		}
		rewrites = append(rewrites, *rw)
	}
	if len(rewrites) == 0 {
		return nil
	}

	// Write the replacement files while no lock is held. The DFS is
	// write-once, so the new leaf lives at "<ref>.cN" for the first free N.
	for i := range rewrites {
		rw := &rewrites[i]
		newRef := rw.oldRef + ".c1"
		for n := 2; e.fs.Exists(newRef); n++ {
			newRef = rw.oldRef + ".c" + strconv.Itoa(n)
		}
		if err := e.fs.WriteFile(newRef, rw.data); err != nil {
			return fmt.Errorf("core: compact write %s: %w", newRef, err)
		}
		rw.newRef = newRef
	}

	// Swap the refs under the write lock, re-checking that the leaf still
	// carries exactly the refs the rewrite was planned against.
	e.mu.Lock()
	n := cand.node
	stale := n.Decayed
	for _, rw := range rewrites {
		if n.DataRefs[rw.name] != rw.oldRef {
			stale = true
		}
	}
	if stale {
		e.mu.Unlock()
		for _, rw := range rewrites {
			_ = e.fs.Delete(rw.newRef)
		}
		return nil
	}
	newRefs := make(map[string]string, len(n.DataRefs))
	for name, ref := range n.DataRefs {
		newRefs[name] = ref
	}
	var delta int64
	for _, rw := range rewrites {
		newRefs[rw.name] = rw.newRef
		delta += int64(len(rw.data)) - rw.oldSize
	}
	// Queries snapshot the refs map by reference, so swap it wholesale
	// rather than mutating entries (the decay contract).
	n.DataRefs = newRefs
	n.DataBytes += delta
	e.compBytes += delta
	meta := leafMeta{Epoch: n.Epoch, Refs: newRefs, RawBytes: n.RawBytes, CompBytes: n.DataBytes}
	e.mu.Unlock()

	// Persist the new refs, then drop the old files and their cached
	// chunks. A query that planned against the old map just before the
	// swap can still race the delete — the same narrow window decay has.
	if err := e.replaceLeafMeta(meta); err != nil {
		return err
	}
	for _, rw := range rewrites {
		e.dropChunks(rw.oldRef)
		if err := e.fs.Delete(rw.oldRef); err != nil {
			return fmt.Errorf("core: compact delete %s: %w", rw.oldRef, err)
		}
		rep.BytesBefore += rw.oldSize
		rep.BytesAfter += int64(len(rw.data))
		if rw.wasBlob {
			rep.BlobsConverted++
		}
		if rw.wasRowSeg {
			rep.SegmentsUpgraded++
		}
		if d := rw.oldCount - rw.newCount; d > 0 {
			rep.ChunksMerged += d
		}
	}
	rep.LeavesRewritten++
	return nil
}

// planRewrite decides whether one stored table benefits from a rewrite and
// renders the replacement bytes if so. Returns nil when the file is fine
// as stored.
func (e *Engine) planRewrite(name, ref string, chunkSize int) (*rewrittenTable, error) {
	f, err := e.fs.Open(ref)
	if err != nil {
		return nil, fmt.Errorf("core: compact open %s: %w", ref, err)
	}
	codec := e.opts.Codec
	toV3 := e.opts.SegmentVersion != segment.RowVersion
	r, err := segment.Open(f, f.Size(), codec)
	if errors.Is(err, segment.ErrNotSegment) {
		// Legacy whole-blob leaf → chunked segment. The stored wire text
		// re-renders row by row in stored order (no re-sort: equivalence
		// means reproducing the bytes, not re-deriving them).
		comp, err := e.fs.ReadFile(ref)
		if err != nil {
			return nil, fmt.Errorf("core: compact read %s: %w", ref, err)
		}
		text, err := codec.Decompress(nil, comp)
		if err != nil {
			return nil, fmt.Errorf("core: compact decompress %s: %w", ref, err)
		}
		tab, err := snapshot.DecodeTable(name, text)
		if err != nil {
			return nil, fmt.Errorf("core: compact decode %s: %w", ref, err)
		}
		var data []byte
		var st segment.Stats
		if toV3 {
			w := segment.NewColumnWriter(codec, chunkSize, tab.Schema.NumFields())
			if err := appendColumnarRows(w, tab, text); err != nil {
				return nil, fmt.Errorf("core: compact rewrite %s: %w", ref, err)
			}
			data, st, err = w.Finish()
			if err != nil {
				return nil, fmt.Errorf("core: compact rewrite %s: %w", ref, err)
			}
		} else {
			w := segment.NewWriter(codec, chunkSize)
			tsIdx := tab.Schema.FieldIndex(telco.AttrTS)
			cellIdx := tab.Schema.FieldIndex(telco.AttrCellID)
			start := 0
			for _, r := range tab.Rows {
				end := start
				for end < len(text) && text[end] != '\n' {
					end++
				}
				if end < len(text) {
					end++ // keep the newline
				}
				if err := w.AppendRow(text[start:end], rowMetaOf(r, tsIdx, cellIdx)); err != nil {
					return nil, fmt.Errorf("core: compact rewrite %s: %w", ref, err)
				}
				start = end
			}
			data, st, err = w.Finish()
			if err != nil {
				return nil, fmt.Errorf("core: compact rewrite %s: %w", ref, err)
			}
		}
		return &rewrittenTable{
			name: name, oldRef: ref, oldSize: f.Size(), data: data,
			oldPayload: f.Size(), newPayload: st.PayloadBytes,
			wasBlob: true, oldCount: 1, newCount: st.Chunks,
		}, nil
	}

	if err != nil {
		return nil, fmt.Errorf("core: compact open segment %s: %w", ref, err)
	}
	chunks := r.Chunks()
	var totalULen, payload int64
	for _, ch := range chunks {
		totalULen += ch.ULen
		payload += ch.Len
	}
	ideal := int((totalULen + int64(chunkSize) - 1) / int64(chunkSize))
	if ideal < 1 {
		ideal = 1
	}
	// A v3-targeting sweep upgrades every row-major segment regardless of
	// fragmentation, so old leaves gain per-column streams and zone maps.
	upgrade := toV3 && !r.Columnar()
	if !upgrade && len(chunks) <= ideal {
		return nil, nil // already at (or below) the target chunk count
	}
	if !toV3 {
		w := segment.NewWriter(codec, chunkSize)
		for i, ch := range chunks {
			text, err := r.ChunkData(i)
			if err != nil {
				return nil, fmt.Errorf("core: compact read %s: %w", ref, err)
			}
			if err := w.AppendChunk(text, ch); err != nil {
				return nil, fmt.Errorf("core: compact merge %s: %w", ref, err)
			}
		}
		data, st, err := w.Finish()
		if err != nil {
			return nil, fmt.Errorf("core: compact merge %s: %w", ref, err)
		}
		return &rewrittenTable{
			name: name, oldRef: ref, oldSize: f.Size(), data: data,
			oldPayload: payload, newPayload: st.PayloadBytes,
			oldCount: len(chunks), newCount: st.Chunks,
		}, nil
	}
	schema := telco.SchemaByName(name)
	if schema == nil {
		return nil, fmt.Errorf("core: compact %s: unknown schema %q", ref, name)
	}
	w := segment.NewColumnWriter(codec, chunkSize, schema.NumFields())
	for i := range chunks {
		text, err := r.ChunkData(i)
		if err != nil {
			return nil, fmt.Errorf("core: compact read %s: %w", ref, err)
		}
		tab, err := snapshot.DecodeTable(name, text)
		if err != nil {
			return nil, fmt.Errorf("core: compact decode %s: %w", ref, err)
		}
		if err := appendColumnarRows(w, tab, text); err != nil {
			return nil, fmt.Errorf("core: compact rewrite %s: %w", ref, err)
		}
	}
	data, st, err := w.Finish()
	if err != nil {
		return nil, fmt.Errorf("core: compact rewrite %s: %w", ref, err)
	}
	return &rewrittenTable{
		name: name, oldRef: ref, oldSize: f.Size(), data: data,
		oldPayload: payload, newPayload: st.PayloadBytes,
		wasRowSeg: upgrade, oldCount: len(chunks), newCount: st.Chunks,
	}, nil
}

// rowMetaOf extracts one row's chunk pruning metadata.
func rowMetaOf(r telco.Record, tsIdx, cellIdx int) segment.RowMeta {
	var m segment.RowMeta
	if tsIdx >= 0 && !r[tsIdx].IsNull() {
		m.TS, m.HasTS = segment.NanosOf(r[tsIdx].Time().Unix()), true
	}
	if cellIdx >= 0 {
		// Null cells hash as id 0 — the same value the row filters
		// compare against — so the sketch stays free of false negatives.
		m.Cell, m.HasCell = r[cellIdx].Int64(), true
	}
	return m
}

// appendColumnarRows re-renders stored wire text into a v3 writer row by
// row: fields split straight off the stored lines (byte-exact — decoded
// values never re-render), pruning metadata from the decoded rows.
func appendColumnarRows(w *segment.ColumnWriter, tab *telco.Table, text []byte) error {
	tsIdx := tab.Schema.FieldIndex(telco.AttrTS)
	cellIdx := tab.Schema.FieldIndex(telco.AttrCellID)
	start := 0
	for _, r := range tab.Rows {
		end := start
		for end < len(text) && text[end] != '\n' {
			end++
		}
		fields := telco.SplitFields(string(text[start:end]))
		if end < len(text) {
			end++ // past the newline
		}
		if err := w.AppendRowFields(fields, rowMetaOf(r, tsIdx, cellIdx)); err != nil {
			return err
		}
		start = end
	}
	return nil
}
