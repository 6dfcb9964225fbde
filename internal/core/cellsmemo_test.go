package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"spate/internal/obs"
)

// memoHeld is what r's memo holds on the heap: itself and its rendering
// to capacity.
func memoHeld(r *Result) int64 {
	m := r.rendered
	n := int64(unsafe.Sizeof(*m))
	if k := m.kept.Load(); k != nil {
		n += int64(unsafe.Sizeof(*k)) + int64(cap(k.b))
	}
	return n
}

// fillMemo offers r's memo the largest rendering it keeps — its reserve,
// less what the allocator's rounding of the copy would take past it — and
// reports whether it kept one.
func fillMemo(r *Result) bool {
	for size := len(r.Cells) * cellsMemoPerCell; size > 0; size -= 256 {
		if r.MemoizeCells(-2, bytes.Repeat([]byte{'x'}, size)) {
			return true
		}
	}
	return false
}

// TestCellsMemoStaysInReserve: the memo of a cached answer never holds
// more than SizeBytes charged for it when the cache took the answer,
// whatever renderings its hits offer — sizes drawn from nothing to twice
// the reserve, under keys drawn from a few. It keeps the first rendering
// that fits and returns it byte for byte under that key only; what it
// refuses it does not return. An answer the cache never took keeps
// nothing, and cells 55 bytes wide, the generator's, always fit.
func TestCellsMemoStaysInReserve(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	lru := NewResultLRU(64<<20, obs.NewRegistry())
	rc := ResultsUnder(lru, "")
	for i := 0; i < 200; i++ {
		r := &Result{Cells: make([]CellSeries, 1+rng.Intn(400))}
		if r.MemoizeCells(0, []byte("[]")) {
			t.Fatal("an answer outside the cache kept a rendering")
		}
		bare := r.SizeBytes()
		before := lru.Stats().Bytes
		rc.Put(fmt.Sprint(i), r)
		charged := r.SizeBytes() - bare
		if charged != cellsMemoReserve(len(r.Cells)) || lru.Stats().Bytes-before != r.SizeBytes() {
			t.Fatalf("answer %d: the cache charges %d for the memo (reserve %d)",
				i, charged, cellsMemoReserve(len(r.Cells)))
		}
		var kept []byte
		keptKey := int32(0)
		for n := 0; n < 12; n++ {
			key := int32(rng.Intn(6)) - 2
			b := make([]byte, rng.Intn(2*len(r.Cells)*cellsMemoPerCell+1))
			rng.Read(b)
			if r.MemoizeCells(key, b) {
				if kept != nil {
					t.Fatalf("answer %d: a second rendering kept", i)
				}
				kept, keptKey = b, key
			}
			if held := memoHeld(r); held > charged {
				t.Fatalf("answer %d: the memo holds %d bytes, %d charged", i, held, charged)
			}
			for k := int32(-2); k < 4; k++ {
				got, ok := r.RenderedCells(k)
				if wantOK := kept != nil && k == keptKey; ok != wantOK || (ok && !bytes.Equal(got, kept)) {
					t.Fatalf("answer %d: key %d returns %d bytes (%v), kept %d under key %d", i, k, len(got), ok, len(kept), keptKey)
				}
			}
		}
	}
	// A rendering of cells 55 bytes wide fits at every cell count, past
	// the allocator's switch to whole pages at 32 KiB included.
	for n := 1; n <= 1500; n++ {
		r := &Result{Cells: make([]CellSeries, n)}
		rc.Put("narrow", r)
		if !r.MemoizeCells(0, make([]byte, 55*n)) {
			t.Fatalf("the memo of an answer over %d cells refused 55 bytes a cell", n)
		}
	}
	// A full memo holds no more either.
	r := &Result{Cells: make([]CellSeries, 300)}
	rc.Put("full", r)
	if !fillMemo(r) {
		t.Fatal("the memo kept no rendering")
	}
	if held, charged := memoHeld(r), cellsMemoReserve(len(r.Cells)); held > charged || held < charged*9/10 {
		t.Fatalf("a full memo holds %d bytes of the %d charged", held, charged)
	}
}
