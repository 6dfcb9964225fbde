package highlights

import (
	"slices"
	"time"

	"spate/internal/telco"
)

// cube is the one dense accumulator every Summary but a decoding is built
// in: Folder folds rows into it, Merge merges summaries into it and
// MergeEncoded merges encodings into it, and write puts it into the
// map-shaped Summary. It holds an attribute dictionary (refs, ords); per
// attribute its stats (num), present once any input carries the key, and
// its categorical value table (cat) into vals; and a cell-ordinal table
// with row counts beside a cell-ordinal × per-cell-attribute slab of stats
// (cells). Its stats are pointer-free, and each key accumulates in input
// order with the row fold's arithmetic (add) or Stats.merge's (merge), so
// write puts out bit for bit what map-shaped folds and merges computed.
type cube struct {
	rows int64

	refs []AttrRef
	ords map[AttrRef]int32
	num  []cubeStat         // per attribute
	cat  []map[string]int32 // per attribute: value -> index into vals; nil until an input carries the attribute
	slot []int32            // per attribute: its per-cell slot, -1 until a cell carries it
	vals []cubeVal

	slotAttr []int32 // per slot: its attribute
	cellOrd  map[int64]int32
	cellIDs  []int64    // per cell ordinal
	cellRows []int64    // per cell ordinal
	cells    []cubeStat // cell ordinal × len(slotAttr) + slot
}

// cubeStat is a Stats in the cube: present once an input carries its key,
// even with no values (Merge keeps such entries).
type cubeStat struct {
	has bool
	wireStats
}

// add folds one value observed at at.
func (s *cubeStat) add(v float64, at stamp) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
		s.peak = at
	}
	s.has = true
	s.n++
	s.sum += v
	s.sq += v * v
}

// merge is Stats.merge.
func (s *cubeStat) merge(o *wireStats) {
	s.has = true
	if o.n == 0 {
		return
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
		s.peak = o.peak
	}
	s.n += o.n
	s.sum = addFloat(s.sum, o.sum)
	s.sq = addFloat(s.sq, o.sq)
}

// cubeVal is a ValStat in the cube.
type cubeVal struct {
	count       int64
	first, last stamp
}

// merge folds in count occurrences seen from first to last; a fold adds an
// occurrence as merge(1, at, at).
func (v *cubeVal) merge(count int64, first, last stamp) {
	if count == 0 {
		return
	}
	if v.count == 0 || first.before(v.first) {
		v.first = first
	}
	if v.count == 0 || v.last.before(last) {
		v.last = last
	}
	v.count += count
}

func stampOf(t time.Time) stamp { return stamp{t.Unix() + unixToInternal, int64(t.Nanosecond())} }

func wireOf(st *Stats) wireStats {
	return wireStats{n: st.NonNull, sum: st.Sum, sq: st.SumSq, min: st.Min, max: st.Max, peak: stampOf(st.PeakTime)}
}

// reset empties the cube, keeping its storage.
func (c *cube) reset() {
	c.rows = 0
	clear(c.ords)
	clear(c.cellOrd)
	c.refs, c.num, c.cat, c.slot, c.vals = c.refs[:0], c.num[:0], c.cat[:0], c.slot[:0], c.vals[:0]
	c.slotAttr, c.cellIDs, c.cellRows, c.cells = c.slotAttr[:0], c.cellIDs[:0], c.cellRows[:0], c.cells[:0]
}

// attr returns ref's ordinal, entering it in the dictionary on first sight.
func (c *cube) attr(ref AttrRef) int32 {
	if g, ok := c.ords[ref]; ok {
		return g
	}
	return c.newAttr(ref)
}

func (c *cube) newAttr(ref AttrRef) int32 {
	if c.ords == nil {
		c.ords = make(map[AttrRef]int32)
	}
	g := int32(len(c.refs))
	c.ords[ref] = g
	c.refs = append(c.refs, ref)
	c.num = append(c.num, cubeStat{})
	c.cat = append(c.cat, nil)
	c.slot = append(c.slot, -1)
	return g
}

// table returns attribute g's value table, marking the attribute present.
func (c *cube) table(g int32, size int) map[string]int32 {
	if c.cat[g] == nil {
		c.cat[g] = make(map[string]int32, size)
	}
	return c.cat[g]
}

// value returns v's index in tab, entering it on first sight.
func (c *cube) value(tab map[string]int32, v string) int32 {
	i, ok := tab[v]
	if !ok {
		i = int32(len(c.vals))
		tab[v] = i
		c.vals = append(c.vals, cubeVal{})
	}
	return i
}

// reserve sizes the cell table for the n cells of an input, when the cube
// holds no cell yet.
func (c *cube) reserve(n int) {
	if len(c.cellIDs) == 0 {
		c.cellIDs, c.cellRows = slices.Grow(c.cellIDs, n), slices.Grow(c.cellRows, n)
		if c.cellOrd == nil {
			c.cellOrd = make(map[int64]int32, n)
		}
	}
}

// cell returns id's ordinal, and whether it is new: a new cell gets a zeroed
// row of the slab, which grows with the cell table's capacity.
func (c *cube) cell(id int64) (int32, bool) {
	if o, ok := c.cellOrd[id]; ok {
		return o, false
	}
	c.reserve(0)
	o := int32(len(c.cellIDs))
	c.cellOrd[id] = o
	c.cellIDs = append(c.cellIDs, id)
	c.cellRows = append(c.cellRows, 0)
	w := len(c.slotAttr)
	c.cells = slices.Grow(c.cells, cap(c.cellIDs)*w-len(c.cells))[:len(c.cells)+w]
	clear(c.cells[len(c.cells)-w:])
	return o, true
}

// slotOf returns attribute g's per-cell slot; the attribute's first one
// widens every cell's row of the slab by one.
func (c *cube) slotOf(g int32) int {
	if s := c.slot[g]; s >= 0 {
		return int(s)
	}
	w := len(c.slotAttr)
	c.slot[g] = int32(w)
	c.slotAttr = append(c.slotAttr, g)
	if len(c.cellIDs) > 0 {
		wide := make([]cubeStat, len(c.cellIDs)*(w+1))
		for o := range c.cellIDs {
			copy(wide[o*(w+1):], c.cells[o*w:(o+1)*w])
		}
		c.cells = wide
	}
	return w
}

// at is cell o's stats in slot s.
func (c *cube) at(o int32, s int) *cubeStat { return &c.cells[int(o)*len(c.slotAttr)+s] }

// merge merges an in-memory summary into the cube.
func (c *cube) merge(p *Summary) {
	c.rows += p.Rows
	for ref, st := range p.Num {
		w := wireOf(st)
		c.num[c.attr(ref)].merge(&w)
	}
	for ref, vals := range p.Cat {
		tab := c.table(c.attr(ref), len(vals))
		for v, vs := range vals {
			c.vals[c.value(tab, v)].merge(vs.Count, stampOf(vs.First), stampOf(vs.Last))
		}
	}
	c.reserve(len(p.Cells))
	for id, cs := range p.Cells {
		o, _ := c.cell(id)
		c.cellRows[o] += cs.Rows
		for ref, st := range cs.Num {
			w := wireOf(st)
			c.at(o, c.slotOf(c.attr(ref))).merge(&w)
		}
	}
}

// write puts the cube into s — a new summary, or the one a fold started
// from — and returns s. Entries s lacks come out of one slab of Stats,
// ValStats and CellStats each; maps s lacks are sized for the cube.
func (c *cube) write(s *Summary) *Summary {
	s.Rows += c.rows
	stats := make([]Stats, len(c.num)+len(c.cells))
	// put writes st under ref; a map new to the summary has nothing to find.
	put := func(m map[AttrRef]*Stats, fresh bool, ref AttrRef, st *cubeStat) {
		var p *Stats
		if !fresh {
			p = m[ref]
		}
		if p == nil {
			p, stats = &stats[0], stats[1:]
			m[ref] = p
		}
		*p = st.stats()
	}
	fresh := len(s.Num) == 0
	if fresh {
		s.Num = make(map[AttrRef]*Stats, len(c.num))
	}
	for g := range c.num {
		if c.num[g].has {
			put(s.Num, fresh, c.refs[g], &c.num[g])
		}
	}

	if len(s.Cat) == 0 {
		s.Cat = make(map[AttrRef]map[string]*ValStat, len(c.cat))
	}
	vals := make([]ValStat, len(c.vals))
	for g, tab := range c.cat {
		m := s.Cat[c.refs[g]]
		if m == nil && tab != nil {
			m = make(map[string]*ValStat, len(tab))
			s.Cat[c.refs[g]] = m
		}
		for v, i := range tab {
			p := m[v]
			if p == nil {
				p = &vals[i]
				m[v] = p
			}
			*p = ValStat{Count: c.vals[i].count, First: c.vals[i].first.time(), Last: c.vals[i].last.time()}
		}
	}

	if len(s.Cells) == 0 {
		s.Cells = make(map[int64]*CellStats, len(c.cellIDs))
	}
	cells := make([]CellStats, len(c.cellIDs))
	w := len(c.slotAttr)
	for o, id := range c.cellIDs {
		cs := s.Cells[id]
		newCell := cs == nil
		if newCell {
			cs = &cells[o]
			cs.Num = make(map[AttrRef]*Stats, w)
			s.Cells[id] = cs
		}
		cs.Rows += c.cellRows[o]
		for i := o * w; i < (o+1)*w; i++ {
			if c.cells[i].has {
				put(cs.Num, newCell, c.refs[c.slotAttr[i-o*w]], &c.cells[i])
			}
		}
	}
	return s
}

// MergeEncoded is Merge over parts in their binary form (Encode): each part
// is walked from its bytes straight into the cube, never becoming a Summary,
// so the result equals Merge(period, DecodeBinary(p)...) bit for bit. A part
// that does not decode fails the merge.
func MergeEncoded(period telco.TimeRange, parts [][]byte) (*Summary, error) {
	var w partWalk
	for _, p := range parts {
		if _, err := walk(p, &w); err != nil {
			return nil, err
		}
	}
	return w.c.write(&Summary{Period: period}), nil
}

// partWalk is MergeEncoded's visitor: it merges each part walked into c.
type partWalk struct {
	noop   // nums and cats: the cube sizes nothing by them
	c      cube
	local  []int32          // the part being walked: its attribute ordinals -> the cube's
	inCat  map[string]int32 // the value table of the attribute being walked
	inCell int32            // the cell being walked
}

func (p *partWalk) rows(n int64) { p.c.rows += n }
func (p *partWalk) dict(int)     { p.local = p.local[:0] }

func (p *partWalk) attr(_ int, table, attr []byte) {
	g, ok := p.c.ords[AttrRef{string(table), string(attr)}]
	if !ok {
		g = p.c.newAttr(AttrRef{string(table), string(attr)})
	}
	p.local = append(p.local, g)
}

func (p *partWalk) num(attr int, st wireStats) { p.c.num[p.local[attr]].merge(&st) }
func (p *partWalk) cat(attr, values int)       { p.inCat = p.c.table(p.local[attr], values) }

func (p *partWalk) value(v []byte, count int64, first, last stamp) {
	i, ok := p.inCat[string(v)] // a lookup that copies no bytes
	if !ok {
		i = p.c.value(p.inCat, string(v))
	}
	p.c.vals[i].merge(count, first, last)
}

func (p *partWalk) cells(n, _ int) { p.c.reserve(n) }

func (p *partWalk) cell(id, rows int64, _ int) {
	p.inCell, _ = p.c.cell(id)
	p.c.cellRows[p.inCell] += rows
}

func (p *partWalk) cellNum(attr int, st wireStats) {
	s := p.c.slotOf(p.local[attr])
	p.c.at(p.inCell, s).merge(&st)
}
