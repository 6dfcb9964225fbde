package highlights

import (
	"slices"
	"time"

	"spate/internal/telco"
)

// Folder folds column batches of one source table into a Summary — the one
// highlight fold: ingest, memtable parts and leaf rebuilds all feed it.
// Between NewFolder and Flush it keeps the table's share of the cube dense:
// one accumulator per numeric attribute, and for the per-cell attributes a
// cell-ordinal × attribute slab, so a row costs one cell lookup and array
// arithmetic instead of a map access per (cell, attribute). Flush writes
// the map-shaped Summary once.
//
// The fold is column-at-a-time, which changes nothing a Stats can see: each
// accumulator receives exactly the values the row-at-a-time fold gave it, in
// row order, so every float comes out bit for bit the same. A folder starts
// from whatever the summary already holds for its attributes and cells.
type Folder struct {
	s   *Summary
	cfg Config

	ts, cell int // column positions in the batch layout, -1 when absent
	nums     []foldCol
	cats     []foldCol
	perCell  int // per-cell accumulators a cell carries

	rows     int64
	num      []acc           // per nums
	cellOrd  map[int64]int32 // cell id -> ordinal
	cellIDs  []int64         // per ordinal
	cellRows []int64         // rows folded per ordinal
	cellAcc  []acc           // ordinal*perCell + slot

	// per-batch scratch
	at      []int64 // each row's timestamp as Unix seconds
	ord     []int32 // each row's cell ordinal, -1 without a cell id
	entries []*ValStat
}

// foldCol is one summarized attribute resolved against the batch layout.
type foldCol struct {
	ref  AttrRef
	idx  int // column position
	slot int // per-cell accumulator slot, -1 when not tracked per cell
}

// acc is Stats with its peak time as Unix seconds: pointer-free, so the
// slabs cost the collector nothing.
type acc struct {
	n        int64
	sum, sq  float64
	min, max float64
	peak     int64
}

// noTime is what a row without a timestamp folds under: the zero
// time.Time, as Unix seconds (it converts back to exactly time.Time{}).
var noTime = time.Time{}.Unix()

func unixUTC(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

func (a *acc) add(v float64, at int64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
		a.peak = at
	}
	a.n++
	a.sum += v
	a.sq += v * v
}

func accOf(st *Stats) acc {
	if st == nil {
		return acc{}
	}
	return acc{n: st.NonNull, sum: st.Sum, sq: st.SumSq, min: st.Min, max: st.Max, peak: st.PeakTime.Unix()}
}

func (a *acc) stats() Stats {
	return Stats{NonNull: a.n, Sum: a.sum, SumSq: a.sq, Min: a.min, Max: a.max, PeakTime: unixUTC(a.peak)}
}

// addAt is ValStat.add over Unix seconds. Summary times are whole seconds —
// each is a KindTime value or the zero time — so comparing seconds orders
// them exactly as Before and After do.
func (v *ValStat) addAt(sec int64) {
	if v.Count == 0 || sec < v.First.Unix() {
		v.First = unixUTC(sec)
	}
	if v.Count == 0 || sec > v.Last.Unix() {
		v.Last = unixUTC(sec)
	}
	v.Count++
}

// NewFolder starts a fold into s of batches laid out as layout: a source
// table's schema, or a projection of it holding at least the timestamp, the
// cell id and cfg.Attrs of the table (attributes the layout lacks are not
// summarized).
func NewFolder(s *Summary, cfg Config, layout *telco.Schema) *Folder {
	f := new(Folder)
	f.Reset(s, cfg, layout)
	return f
}

// Reset starts the folder over on another summary and layout, keeping its
// arrays and its cell table's storage: a scan that rebuilds leaf after leaf
// reuses one folder.
func (f *Folder) Reset(s *Summary, cfg Config, layout *telco.Schema) {
	f.s, f.cfg = s, cfg.withDefaults()
	f.ts, f.cell = layout.FieldIndex(telco.AttrTS), layout.FieldIndex(telco.AttrCellID)
	f.nums, f.cats, f.num, f.perCell, f.rows = f.nums[:0], f.cats[:0], f.num[:0], 0, 0
	if f.cellOrd == nil {
		f.cellOrd = make(map[int64]int32)
	}
	clear(f.cellOrd)
	f.cellIDs, f.cellRows, f.cellAcc = f.cellIDs[:0], f.cellRows[:0], f.cellAcc[:0]
	for _, ref := range cfg.Numeric {
		if i := layout.FieldIndex(ref.Attr); ref.Table == layout.Name && i >= 0 {
			c := foldCol{ref: ref, idx: i, slot: -1}
			for _, pc := range cfg.CellAttrs {
				if pc == ref {
					c.slot = f.perCell
					f.perCell++
					break
				}
			}
			f.nums = append(f.nums, c)
			f.num = append(f.num, accOf(s.Num[ref]))
		}
	}
	for _, ref := range cfg.Categorical {
		if i := layout.FieldIndex(ref.Attr); ref.Table == layout.Name && i >= 0 {
			f.cats = append(f.cats, foldCol{ref: ref, idx: i})
		}
	}
}

// Add folds every row of b, in row order.
func (f *Folder) Add(b *telco.Batch) {
	n := b.N
	f.rows += int64(n)
	f.at = slices.Grow(f.at[:0], n)[:n]
	if f.ts >= 0 {
		c := &b.Cols[f.ts]
		if len(c.Ints) == n {
			copy(f.at, c.Ints)
		} else {
			clear(f.at) // not a time column: its values read as second 0
		}
		if c.NullCount > 0 || c.Kind == telco.KindString {
			for i := range f.at {
				if c.Null(i) {
					f.at[i] = noTime
				}
			}
		}
	} else {
		for i := range f.at {
			f.at[i] = noTime
		}
	}
	f.ord = slices.Grow(f.ord[:0], n)[:n]
	if f.cell >= 0 {
		c := &b.Cols[f.cell]
		lastID, last := int64(0), int32(-1)
		for i := range f.ord {
			if c.Null(i) {
				f.ord[i] = -1
				continue
			}
			var id int64
			if c.Kind == telco.KindInt || c.Kind == telco.KindTime {
				id = c.Ints[i]
			}
			if last < 0 || id != lastID {
				lastID, last = id, f.ordinal(id)
			}
			f.ord[i] = last
			f.cellRows[last]++
		}
	} else {
		for i := range f.ord {
			f.ord[i] = -1
		}
	}
	for k, nc := range f.nums {
		c := &b.Cols[nc.idx]
		global := &f.num[k]
		for i := 0; i < n; i++ {
			if c.Null(i) {
				continue
			}
			v := c.Num(i)
			global.add(v, f.at[i])
			if o := f.ord[i]; nc.slot >= 0 && o >= 0 {
				f.cellAcc[int(o)*f.perCell+nc.slot].add(v, f.at[i])
			}
		}
	}
	for _, cc := range f.cats {
		f.addCat(cc.ref, &b.Cols[cc.idx], n)
	}
}

// ordinal returns the cell's slot in the dense per-cell arrays, giving it
// one — seeded with whatever the summary already holds for the cell — on
// first sight.
func (f *Folder) ordinal(id int64) int32 {
	if o, ok := f.cellOrd[id]; ok {
		return o
	}
	o := int32(len(f.cellIDs))
	f.cellOrd[id] = o
	f.cellIDs = append(f.cellIDs, id)
	f.cellRows = append(f.cellRows, 0)
	have := f.s.Cells[id]
	for _, nc := range f.nums {
		if nc.slot < 0 {
			continue
		}
		var st *Stats
		if have != nil {
			st = have.Num[nc.ref]
		}
		f.cellAcc = append(f.cellAcc, accOf(st))
	}
	return o
}

// addCat folds one categorical column. A value's ValStat is resolved once
// per dictionary entry — in row order, at the entry's first non-null row,
// so values claim their place under MaxCatValues exactly as row-at-a-time —
// and rows then count through the entry's pointer.
func (f *Folder) addCat(ref AttrRef, c *telco.Column, n int) {
	vals := f.s.Cat[ref]
	resolve := func(key []byte) *ValStat {
		if vals == nil {
			vals = make(map[string]*ValStat)
			f.s.Cat[ref] = vals
		}
		vs := vals[string(key)]
		if vs == nil {
			k := string(key)
			if len(vals) >= f.cfg.MaxCatValues {
				k = overflowValue
				vs = vals[k]
			}
			if vs == nil {
				vs = &ValStat{}
				vals[k] = vs
			}
		}
		return vs
	}
	if c.Kind != telco.KindString {
		// A categorical over a non-string column counts each value's wire form.
		for i := 0; i < n; i++ {
			if !c.Null(i) {
				resolve([]byte(c.Value(i).Format())).addAt(f.at[i])
			}
		}
		return
	}
	f.entries = slices.Grow(f.entries[:0], len(c.Starts))[:len(c.Starts)]
	clear(f.entries)
	for i := 0; i < n; i++ {
		e := i
		if c.Codes != nil {
			e = int(c.Codes[i])
		}
		vs := f.entries[e]
		if vs == nil {
			key := c.Entry(e)
			if len(key) == 0 {
				continue // null
			}
			vs = resolve(key)
			f.entries[e] = vs
		}
		vs.addAt(f.at[i])
	}
}

// Flush writes what the folder accumulated into the summary: Stats and
// CellStats are carved out of one slab each and the cell maps are sized for
// what they will hold. The folder is spent until the next Reset.
func (f *Folder) Flush() {
	s := f.s
	defer func() {
		f.s = nil
		clear(f.entries[:cap(f.entries)])
	}()
	s.Rows += f.rows
	stats := slabOf[Stats](len(f.num) + len(f.cellAcc))
	put := func(m map[AttrRef]*Stats, ref AttrRef, a *acc) {
		if a.n == 0 {
			return // no value seen: the row fold never created the entry
		}
		st := m[ref]
		if st == nil {
			st = stats.next()
			m[ref] = st
		}
		*st = a.stats()
	}
	for k, nc := range f.nums {
		put(s.Num, nc.ref, &f.num[k])
	}
	if len(s.Cells) == 0 {
		s.Cells = make(map[int64]*CellStats, len(f.cellIDs))
	}
	cells := slabOf[CellStats](len(f.cellIDs))
	for o, id := range f.cellIDs {
		cell := s.Cells[id]
		if cell == nil {
			cell = cells.next()
			cell.Num = make(map[AttrRef]*Stats, len(f.cfg.CellAttrs))
			s.Cells[id] = cell
		}
		cell.Rows += f.cellRows[o]
		for _, nc := range f.nums {
			if nc.slot >= 0 {
				put(cell.Num, nc.ref, &f.cellAcc[o*f.perCell+nc.slot])
			}
		}
	}
}
