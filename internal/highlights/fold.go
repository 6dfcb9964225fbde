package highlights

import (
	"slices"

	"spate/internal/telco"
)

// Folder folds column batches of one source table into a Summary — the one
// highlight fold: ingest, memtable parts and leaf rebuilds all feed it.
// Between NewFolder and Flush the summary lives in a dense cube: a row
// costs one cell lookup and array arithmetic on the cube's per-attribute
// stats and its cell-ordinal × attribute slab. Flush sorts the cube's
// attributes, values and cells and hands the summary its flat arrays.
//
// The fold is column-at-a-time, which changes nothing a Stats can see: each
// key receives exactly the values the row-at-a-time fold gave it, in row
// order, so every float comes out bit for bit the same. A folder starts
// from whatever the summary already holds, copied into the cube by Reset.
type Folder struct {
	s      *Summary
	maxCat int // Config.MaxCatValues
	c      cube

	ts, cell int // column positions in the batch layout, -1 when absent
	nums     []foldCol
	cats     []foldCol

	// per-batch scratch
	at      []stamp // each row's timestamp
	ord     []int32 // each row's cell ordinal, -1 without a cell id
	entries []int32 // per dictionary entry of a string column: its value's index in the cube + 1, 0 until resolved
}

// foldCol is one summarized attribute resolved against the batch layout.
type foldCol struct {
	idx  int   // column position
	attr int32 // the attribute's ordinal in the cube
	cell bool  // tracked per cell
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
// cube's storage: a scan that rebuilds leaf after leaf reuses one folder.
func (f *Folder) Reset(s *Summary, cfg Config, layout *telco.Schema) {
	f.s, f.maxCat = s, cfg.withDefaults().MaxCatValues
	f.ts, f.cell = layout.FieldIndex(telco.AttrTS), layout.FieldIndex(telco.AttrCellID)
	f.nums, f.cats = f.nums[:0], f.cats[:0]
	f.c.reset()
	for _, ref := range cfg.Numeric {
		if i := layout.FieldIndex(ref.Attr); ref.Table == layout.Name && i >= 0 {
			f.nums = append(f.nums, foldCol{idx: i, attr: f.c.attr(ref), cell: slices.Contains(cfg.CellAttrs, ref)})
		}
	}
	for _, ref := range cfg.Categorical {
		if i := layout.FieldIndex(ref.Attr); ref.Table == layout.Name && i >= 0 {
			f.cats = append(f.cats, foldCol{idx: i, attr: f.c.attr(ref)})
		}
	}
	f.c.load(s)
}

// Add folds every row of b, in row order.
func (f *Folder) Add(b *telco.Batch) {
	n := b.N
	f.c.rows += int64(n)
	f.at = slices.Grow(f.at[:0], n)[:n]
	clear(f.at) // a row without a timestamp folds under the zero time
	if f.ts >= 0 {
		c := &b.Cols[f.ts]
		for i := range f.at {
			if !c.Null(i) {
				f.at[i].sec = unixToInternal // Unix second 0: what a column without times reads as
				if len(c.Ints) == n {
					f.at[i].sec += c.Ints[i]
				}
			}
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
				lastID, last = id, f.c.cell(id)
			}
			f.ord[i] = last
			f.c.cellRows[last]++
		}
	} else {
		for i := range f.ord {
			f.ord[i] = -1
		}
	}
	for _, nc := range f.nums {
		c := &b.Cols[nc.idx]
		global := &f.c.num[nc.attr]
		for i := 0; i < n; i++ {
			if c.Null(i) {
				continue
			}
			v := c.Num(i)
			global.add(v, f.at[i])
			if o := f.ord[i]; nc.cell && o >= 0 {
				f.c.at(o, nc.attr).add(v, f.at[i])
			}
		}
	}
	for _, cc := range f.cats {
		f.addCat(cc.attr, &b.Cols[cc.idx], n)
	}
}

// addCat folds one categorical column. A value's place in the cube is
// resolved once per dictionary entry — in row order, at the entry's first
// non-null row, so values claim their place under MaxCatValues exactly as
// row-at-a-time — and rows then count through the entry's index.
func (f *Folder) addCat(g int32, c *telco.Column, n int) {
	resolve := func(key []byte) int32 {
		tab := f.c.table(g, 0)
		if i, ok := tab[string(key)]; ok {
			return i
		}
		if len(tab) >= f.maxCat {
			return f.c.value(tab, overflowValue)
		}
		return f.c.value(tab, string(key))
	}
	if c.Kind != telco.KindString {
		// A categorical over a non-string column counts each value's wire form.
		for i := 0; i < n; i++ {
			if !c.Null(i) {
				f.c.vals[resolve([]byte(c.Value(i).Format()))].merge(1, f.at[i], f.at[i])
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
		v := f.entries[e]
		if v == 0 {
			key := c.Entry(e)
			if len(key) == 0 {
				continue // null
			}
			v = resolve(key) + 1
			f.entries[e] = v
		}
		f.c.vals[v-1].merge(1, f.at[i], f.at[i])
	}
}

// Flush writes what the folder accumulated into the summary. The folder is
// spent until the next Reset.
func (f *Folder) Flush() {
	f.c.flatten(f.s)
	f.s = nil
}
