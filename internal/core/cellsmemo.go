package core

import (
	"bytes"
	"sync/atomic"
	"unsafe"
)

// A result-cache hit hands every caller the same cells, so a front end
// that renders them (the web UI's "cells":[…] array) can render them once
// and copy the bytes on later hits. The rendering lives in a memo on the
// cached answer, which sharedResult's copies share, and goes when the
// answer leaves the cache. What the memo may hold is reserved when the
// cache takes the answer — SizeBytes charges it then — so the cache stays
// bounded by bytes however many hits fill it.

// cellsMemoPerCell is the memo's reserve per cell of its answer: room for
// one rendering of a cell of typical width (the web UI's
// {"id","x","y","rows","value"} is 53–55 bytes over the generator's
// cells) with the allocator's rounding of the copy: up to its size class,
// or past 32 KiB to a whole 8 KiB page. A 55-byte cell fits at every cell
// count.
const cellsMemoPerCell = 72

// cellsMemo holds one rendering of a cached answer's cells, under the key
// its renderer named it by: the first hit's. A hit that asks for the cells
// another way renders them as a miss does.
type cellsMemo struct {
	kept atomic.Pointer[rendering]
}

type rendering struct {
	key int32
	b   []byte
}

// cellsMemoReserve is what the memo of an answer over cells cells may
// hold, itself included: what SizeBytes charges for it.
func cellsMemoReserve(cells int) int64 {
	return int64(unsafe.Sizeof(cellsMemo{})+unsafe.Sizeof(rendering{})) + int64(cells)*cellsMemoPerCell
}

// RenderedCells returns the rendering of the answer's cells kept under key
// by an earlier hit. The bytes are shared by every hit: append them, never
// modify them.
func (r *Result) RenderedCells(key int32) ([]byte, bool) {
	if r.rendered == nil {
		return nil, false
	}
	if k := r.rendered.kept.Load(); k != nil && k.key == key {
		return k.b, true
	}
	return nil, false
}

// MemoizeCells keeps a copy of b, a rendering of the answer's cells, under
// key for the hits that follow, and reports whether it did. Only an answer
// the result cache took has a memo; it keeps the first rendering offered
// and refuses one that would take it past the reserve SizeBytes charged.
func (r *Result) MemoizeCells(key int32, b []byte) bool {
	m := r.rendered
	limit := int64(len(r.Cells)) * cellsMemoPerCell
	if m == nil || m.kept.Load() != nil || int64(len(b)) > limit {
		return false // before the copy: a refused rendering costs no copy
	}
	kept := bytes.Clone(b)
	if int64(cap(kept)) > limit {
		return false
	}
	// Hits racing to fill the memo may each copy; one copy stays.
	return m.kept.CompareAndSwap(nil, &rendering{key, kept})
}
