package telco

import (
	"bytes"
	"slices"
	"strconv"
)

// Batch is one chunk's worth of rows held column-major: per column a
// pointer-free typed array with a null bitmap, plus a selection vector
// naming the rows that survived the filters applied so far. It is the form
// every scan consumes — packed column streams decode straight into it,
// wire text and in-memory records reach it through SetRows — and the form
// in which predicates, aggregates and highlight folds run; Records are
// materialized from it (AppendRecords) only for rows that leave the
// engine. A Batch is a reusable buffer: Reset keeps every array's capacity.
type Batch struct {
	N    int      // rows held
	Cols []Column // one per projected column, in layout order

	// sel lists the selected rows in ascending order once filtered is set;
	// before that every row is selected and sel is only capacity.
	sel      []uint32
	filtered bool
}

// Column is one attribute of a Batch. Which arrays are live follows Kind:
//
//   - KindInt and KindTime fill Ints (a time as Unix seconds);
//   - KindFloat fills Floats;
//   - KindString describes row i as entry Codes[i] — entry i when Codes is
//     nil — of a dictionary whose entry e is Arena[Starts[e]:Ends[e]],
//     unescaped. A dictionary-coded stream keeps its dictionary; any other
//     source has one entry per row.
//
// Codes, when set, is a buffer the column owns; Arena may alias the bytes
// the column was decoded from.
//
// A blank wire field is null whatever the kind: numeric columns mark it in
// the null bitmap (the slot reads 0), string columns by the empty entry.
type Column struct {
	Kind   Kind
	Ints   []int64
	Floats []float64

	Arena        []byte
	Starts, Ends []uint32
	Codes        []uint32

	// Runs is set for a column decoded from a run-length coded stream: the
	// exclusive end row of each run, ascending. Every row of a run holds the
	// same value, so a filter may decide a run by its first row.
	Runs []uint32

	// NullCount is the number of null rows of a non-string column.
	NullCount int

	n     int
	codes []uint32 // backing store of Codes
	nulls []uint64 // bit i set: row i is null (non-string kinds)
	own   []byte   // backing store for arenas the column had to build
	work  []int32  // decoder scratch, see Work
}

// Reset sizes the batch for n rows of the columns at cols (ascending
// positions in schema; nil keeps every column), typed by the schema, with
// every row selected. Column contents are undefined until a decoder fills
// them.
func (b *Batch) Reset(schema *Schema, cols []int, n int) {
	width := len(cols)
	if cols == nil {
		width = len(schema.Fields)
	}
	if cap(b.Cols) < width {
		b.Cols = append(b.Cols[:cap(b.Cols)], make([]Column, width-cap(b.Cols))...)
	}
	b.Cols = b.Cols[:width]
	for k := range b.Cols {
		at := k
		if cols != nil {
			at = cols[k]
		}
		b.Cols[k].Reset(schema.Fields[at].Kind, n)
	}
	b.N = n
	b.sel = slices.Grow(b.sel[:0], n)
	b.SelectAll()
}

// SelectAll drops the selection: every row counts again.
func (b *Batch) SelectAll() { b.sel, b.filtered = b.sel[:0], false }

// SelectNone empties the selection: a filter no row can pass.
func (b *Batch) SelectNone() { b.sel, b.filtered = b.sel[:0], true }

// Len is the number of selected rows.
func (b *Batch) Len() int {
	if b.filtered {
		return len(b.sel)
	}
	return b.N
}

// Rows returns the selected rows as an ascending list — the batch's own
// buffer, the identity written out when no filter has run yet. A filter
// reads it, appends its survivors to Rows()[:0] (row k is read before the
// k'th survivor is written, which never overtakes the read) and installs
// the result with SetSelection.
func (b *Batch) Rows() []uint32 {
	if !b.filtered {
		b.sel = slices.Grow(b.sel[:0], b.N)[:b.N]
		for i := range b.sel {
			b.sel[i] = uint32(i)
		}
		b.filtered = true
	}
	return b.sel
}

// SetSelection installs the rows a filter kept (ascending).
func (b *Batch) SetSelection(sel []uint32) { b.sel, b.filtered = sel, true }

// Keep narrows the selection to the rows keep accepts — the general filter;
// hot predicates run a loop of their own over Rows.
func (b *Batch) Keep(keep func(i int) bool) {
	sel := b.Rows()
	out := sel[:0]
	for _, i := range sel {
		if keep(int(i)) {
			out = append(out, i)
		}
	}
	b.SetSelection(out)
}

// Reset prepares the column for n rows of kind k.
func (c *Column) Reset(k Kind, n int) {
	c.Kind, c.n, c.NullCount = k, n, 0
	c.Ints, c.Floats = c.Ints[:0], c.Floats[:0]
	c.Arena, c.Starts, c.Ends, c.Codes, c.Runs = nil, c.Starts[:0], c.Ends[:0], nil, c.Runs[:0]
	c.own = c.own[:0]
	switch k {
	case KindInt, KindTime:
		c.Ints = slices.Grow(c.Ints, n)[:n]
	case KindFloat:
		c.Floats = slices.Grow(c.Floats, n)[:n]
	}
	if k != KindString {
		c.nulls = slices.Grow(c.nulls[:0], (n+63)/64)[:(n+63)/64]
		clear(c.nulls)
	}
}

// SetEntries sizes a string column's dictionary to n entries, for the
// caller to place in Arena through Starts and Ends.
func (c *Column) SetEntries(n int) {
	c.Starts, c.Ends = slices.Grow(c.Starts[:0], n)[:n], slices.Grow(c.Ends[:0], n)[:n]
}

// UseCodes makes a string column dictionary-coded: Codes becomes an
// n-element buffer the column keeps across resets, for the caller to fill.
func (c *Column) UseCodes(n int) []uint32 {
	c.codes = slices.Grow(c.codes[:0], n)[:n]
	c.Codes = c.codes
	return c.Codes
}

// Work returns an n-element scratch slice that lives with the column, for
// decoders that need per-dictionary-entry state without allocating.
func (c *Column) Work(n int) []int32 {
	c.work = slices.Grow(c.work[:0], n)[:n]
	return c.work
}

// Null reports whether row i is null.
func (c *Column) Null(i int) bool {
	if c.Kind == KindString {
		e := c.entry(i)
		return c.Starts[e] == c.Ends[e]
	}
	return c.NullCount > 0 && c.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetNull marks row i of a non-string column null.
func (c *Column) SetNull(i int) { c.SetNulls(i, i+1) }

// SetNulls marks rows [from, to) of a non-string column null; their slots
// read zero.
func (c *Column) SetNulls(from, to int) {
	switch c.Kind {
	case KindInt, KindTime:
		clear(c.Ints[from:to])
	case KindFloat:
		clear(c.Floats[from:to])
	}
	c.NullCount += to - from
	for i := from; i < to; {
		w, bit := i>>6, uint(i)&63
		span := min(64-int(bit), to-i)
		c.nulls[w] |= (^uint64(0) >> (64 - uint(span))) << bit
		i += span
	}
}

// SetField gives row i of a non-string column the value ParseField(Kind,
// field) yields, failing exactly where it fails. The common shapes — plain
// digits, a fourteen-digit timestamp, a float — parse off the bytes; every
// other (an escape, a sign, a malformed field) takes ParseField itself.
func (c *Column) SetField(i int, field []byte) error {
	if len(field) == 0 {
		c.SetNull(i)
		return nil
	}
	switch c.Kind {
	case KindInt:
		if x, ok := parseDigits(field); ok {
			c.Ints[i] = x
			return nil
		}
	case KindTime:
		if sec, ok := parseWireTime(field); ok {
			c.Ints[i] = sec
			return nil
		}
	case KindFloat:
		if f, err := strconv.ParseFloat(string(field), 64); err == nil {
			c.Floats[i] = f
			return nil
		}
	}
	v, err := ParseField(c.Kind, string(field))
	if err != nil {
		return err
	}
	c.set(i, v)
	return nil
}

// IntsToTimes converts rows [0, n) of a time column, which hold integers as
// a delta-coded stream stores them, into Unix seconds in place: row i
// becomes ValueOfInt(KindTime, x), and the first x that names no time fails
// the conversion as ValueOfInt does. Fourteen wire digits convert
// arithmetically, one civil-day computation serving every row of a day.
func (c *Column) IntsToTimes(n int) error {
	ints := c.Ints[:n]
	day, base := int64(-1), int64(0) // the day the last computation was for, and its midnight
	for i, x := range ints {
		if x >= 1e13 && x < 1e14 { // exactly fourteen digits, no sign
			d, clock := x/1e6, x%1e6
			if d != day {
				if sec, ok := civilUnix(d/1e4, d/100%100, d%100, 0, 0, 0); ok {
					day, base = d, sec
				}
			}
			if h, mi, s := clock/1e4, clock/100%100, clock%100; d == day && h <= 23 && mi <= 59 && s <= 59 {
				ints[i] = base + h*3600 + mi*60 + s
				continue
			}
		}
		v, err := ValueOfInt(KindTime, x)
		if err != nil {
			return err
		}
		c.set(i, v)
	}
	return nil
}

// set stores a parsed value of the column's kind (or Null) at row i.
func (c *Column) set(i int, v Value) {
	switch {
	case v.kind == KindNull:
		c.SetNull(i)
	case c.Kind == KindFloat:
		c.Floats[i] = v.Float64()
	case c.Kind == KindInt, c.Kind == KindTime:
		c.Ints[i] = v.num
	}
}

// parseDigits parses an optionally negative run of at most 18 digits — the
// integers strconv.ParseInt accepts that need no overflow check.
func parseDigits(b []byte) (int64, bool) {
	d := b
	neg := d[0] == '-'
	if neg {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return 0, false
	}
	var x int64
	for _, ch := range d {
		ch -= '0'
		if ch > 9 {
			return 0, false
		}
		x = x*10 + int64(ch)
	}
	if neg {
		x = -x
	}
	return x, true
}

// OwnArena makes buf, a byte store the caller built with the column's
// entries in it, the column's arena. Take the store to build from Own.
func (c *Column) OwnArena(buf []byte) { c.own, c.Arena = buf, buf }

// Own returns the column's reusable byte store, empty.
func (c *Column) Own() []byte { return c.own[:0] }

// Unescape resolves wire escapes in the dictionary entries, which arrive
// as escaped fields: an arena without a backslash — nearly every one — is
// left where it is, otherwise the entries are rewritten unescaped into the
// column's own store.
func (c *Column) Unescape() {
	if len(c.Starts) == 0 {
		return
	}
	lo, hi := c.Starts[0], c.Ends[len(c.Ends)-1]
	if bytes.IndexByte(c.Arena[lo:hi], '\\') < 0 {
		return
	}
	buf := c.Own()
	for e := range c.Starts {
		field := c.Arena[c.Starts[e]:c.Ends[e]]
		c.Starts[e] = uint32(len(buf))
		for i := 0; i < len(field); i++ {
			ch := field[i]
			if ch == '\\' && i+1 < len(field) {
				i++
				switch field[i] {
				case 'p':
					ch = '|'
				case 'n':
					ch = '\n'
				default:
					ch = field[i]
				}
			}
			buf = append(buf, ch)
		}
		c.Ends[e] = uint32(len(buf))
	}
	c.OwnArena(buf)
}

// entry is the dictionary entry of row i.
func (c *Column) entry(i int) int {
	if c.Codes != nil {
		return int(c.Codes[i])
	}
	return i
}

// Entry returns dictionary entry e's bytes. Valid until the column is
// reset; not to be retained or modified.
func (c *Column) Entry(e int) []byte { return c.Arena[c.Starts[e]:c.Ends[e]] }

// Bytes returns row i's string bytes (string columns), like Entry.
func (c *Column) Bytes(i int) []byte { return c.Entry(c.entry(i)) }

// Num returns row i as highlights read a numeric attribute: the float of
// an integer or float value, 0 for every other kind (Value.Float64).
func (c *Column) Num(i int) float64 {
	switch c.Kind {
	case KindInt:
		return float64(c.Ints[i])
	case KindFloat:
		return c.Floats[i]
	}
	return 0
}

// Value materializes row i — the slow path for consumers that want one
// typed value at a time; a string value copies its bytes.
func (c *Column) Value(i int) Value {
	if c.Null(i) {
		return Null
	}
	switch c.Kind {
	case KindInt, KindTime:
		return Value{kind: c.Kind, num: c.Ints[i]}
	case KindFloat:
		return Float(c.Floats[i])
	case KindString:
		return String(string(c.Bytes(i)))
	}
	return Null
}

// SetRows resets the batch to the records' rows under the columns at cols
// of schema (as Reset) and loads them — the one adapter by which everything
// that is not a packed column stream (parsed wire text of row-major chunks
// and legacy blobs, memtable rows, snapshot tables) becomes a batch. wide
// says the records are full-width rows of schema, indexed by cols; otherwise
// they are already narrowed to cols, indexed by column order.
func (b *Batch) SetRows(schema *Schema, cols []int, rows []Record, wide bool) {
	b.Reset(schema, cols, len(rows))
	var at []int
	if wide {
		at = cols
	}
	for k := range b.Cols {
		c := &b.Cols[k]
		src := k
		if at != nil {
			src = at[k]
		}
		switch c.Kind {
		case KindInt, KindTime:
			for i, r := range rows {
				if v := r[src]; v.kind == KindNull {
					c.SetNull(i)
				} else {
					c.Ints[i] = v.num
				}
			}
		case KindFloat:
			for i, r := range rows {
				if v := r[src]; v.kind == KindNull {
					c.SetNull(i)
				} else {
					c.Floats[i] = v.Float64()
				}
			}
		case KindString:
			buf := c.Own()
			c.SetEntries(len(rows))
			for i, r := range rows {
				c.Starts[i] = uint32(len(buf))
				buf = append(buf, r[src].str...)
				c.Ends[i] = uint32(len(buf))
			}
			c.OwnArena(buf)
		default:
			c.SetNulls(0, len(rows))
		}
	}
}

// AppendRecords materializes the selected rows as records — one value slab
// for all of them — and appends them to dst. This is where a scan's rows
// leave the batch: string values are substrings of one copy of each string
// column's arena, made only when some row survived.
func (b *Batch) AppendRecords(dst []Record) []Record {
	n, width := b.Len(), len(b.Cols)
	if n == 0 {
		return dst
	}
	sel := b.Rows()
	vals := make([]Value, n*width)
	for k := range b.Cols {
		c := &b.Cols[k]
		if c.Kind != KindString && c.NullCount == c.n {
			continue // every row null: the slab's zero values already say so
		}
		out, nulls := vals[k:], c.NullCount > 0
		switch c.Kind {
		case KindInt, KindTime:
			for j, i := range sel {
				if !nulls || c.nulls[i>>6]&(1<<(i&63)) == 0 {
					out[j*width] = Value{kind: c.Kind, num: c.Ints[i]}
				}
			}
		case KindFloat:
			for j, i := range sel {
				if !nulls || c.nulls[i>>6]&(1<<(i&63)) == 0 {
					out[j*width] = Value{kind: KindFloat, f: c.Floats[i]}
				}
			}
		case KindString:
			if len(c.Starts) == 0 {
				continue
			}
			lo := c.Starts[0]
			text := string(c.Arena[lo:c.Ends[len(c.Ends)-1]])
			for j, i := range sel {
				e := i
				if c.Codes != nil {
					e = c.Codes[i]
				}
				if s, end := c.Starts[e]-lo, c.Ends[e]-lo; s < end {
					out[j*width] = Value{kind: KindString, str: text[s:end]}
				}
			}
		}
	}
	dst = slices.Grow(dst, n)
	for j := 0; j < n; j++ {
		dst = append(dst, vals[j*width:(j+1)*width:(j+1)*width])
	}
	return dst
}

// CopySelected returns the selected rows as a new batch that shares no
// memory with b, every row selected and the columns in b's layout: the form
// in which a scan hands rows to a caller that keeps them past the next
// chunk. Strings are copied row by row, so the copy holds only the bytes of
// the rows it kept; a dictionary-coded column comes out plain.
func (b *Batch) CopySelected() *Batch {
	n := b.Len()
	sel := b.Rows()
	out := &Batch{N: n, Cols: make([]Column, len(b.Cols))}
	// One slab per array kind serves every column of the copy.
	var ints, floats, strs, strBytes int
	for k := range b.Cols {
		c := &b.Cols[k]
		switch c.Kind {
		case KindInt, KindTime:
			ints++
		case KindFloat:
			floats++
		case KindString:
			strs++
			for _, i := range sel {
				e := c.entry(int(i))
				strBytes += int(c.Ends[e] - c.Starts[e])
			}
		}
	}
	words := (n + 63) / 64
	intSlab := make([]int64, ints*n)
	floatSlab := make([]float64, floats*n)
	offSlab := make([]uint32, 2*strs*n)
	nullSlab := make([]uint64, (len(b.Cols)-strs)*words)
	arena := make([]byte, 0, strBytes)
	for k := range b.Cols {
		c, d := &b.Cols[k], &out.Cols[k]
		d.Kind, d.n = c.Kind, n
		switch c.Kind {
		case KindString:
			d.Starts, d.Ends, offSlab = offSlab[:n:n], offSlab[n:2*n:2*n], offSlab[2*n:]
			start := len(arena)
			for j, i := range sel {
				d.Starts[j] = uint32(len(arena) - start)
				arena = append(arena, c.Bytes(int(i))...)
				d.Ends[j] = uint32(len(arena) - start)
			}
			d.Arena = arena[start:len(arena):len(arena)]
			continue
		case KindInt, KindTime:
			d.Ints, intSlab = intSlab[:n:n], intSlab[n:]
			for j, i := range sel {
				d.Ints[j] = c.Ints[i]
			}
		case KindFloat:
			d.Floats, floatSlab = floatSlab[:n:n], floatSlab[n:]
			for j, i := range sel {
				d.Floats[j] = c.Floats[i]
			}
		}
		d.nulls, nullSlab = nullSlab[:words:words], nullSlab[words:]
		if c.NullCount == 0 {
			continue
		}
		for j, i := range sel {
			if c.nulls[i>>6]&(1<<(i&63)) != 0 {
				d.nulls[j>>6] |= 1 << (uint(j) & 63)
				d.NullCount++
			}
		}
	}
	return out
}
