package highlights

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// cubeStat is a stat being accumulated: present once an input carries its
// key, even with no values (Merge keeps such entries).
type cubeStat struct {
	has bool
	stat
}

// add folds one value observed at at — the row fold's arithmetic.
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

// merge folds in another summary's stats for the key (exact, commutative).
func (s *cubeStat) merge(o *stat) {
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

// merge folds in count occurrences seen from first to last; a fold adds an
// occurrence as merge(1, at, at).
func (v *value) merge(count int64, first, last stamp) {
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

// sized returns an empty slice with room for n elements, rounded up to what
// the allocation holds anyway (so a summary's capacities are its heap), or
// nil for none.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return slices.Grow([]T(nil), n)
}

// exact is a copy of s in a slice of its own size (nil when empty).
func exact[T any](s []T) []T { return append(sized[T](len(s)), s...) }

// unionValues appends to dst the union of runs a and b, both ascending by
// value: an entry of b folds into a copy of its equal in a, or into a zero
// entry.
func unionValues(dst, a, b []value) []value {
	for len(b) > 0 {
		if len(a) > 0 && a[0].v < b[0].v {
			dst, a = append(dst, a[0]), a[1:]
			continue
		}
		x := value{v: b[0].v}
		if len(a) > 0 && a[0].v == b[0].v {
			x, a = a[0], a[1:]
		}
		x.merge(b[0].count, b[0].first, b[0].last)
		dst, b = append(dst, x), b[1:]
	}
	return append(dst, a...)
}

func compareRefs(x, y AttrRef) int {
	if c := strings.Compare(x.Table, y.Table); c != 0 {
		return c
	}
	return strings.Compare(x.Attr, y.Attr)
}

// merger is the scratch Merge and Restrict fold in: per attribute of the
// result's dictionary an accumulating stat, the attributes the current key
// touched, and the result's sections before they are copied out at their
// size.
type merger struct {
	acc     []cubeStat
	touched []int32

	dict             []AttrRef
	remap            []int32 // per part, per attribute of its dictionary: the result's
	starts           []int   // per part: where its remap starts
	next             []int   // per part: its next table, then its next cell
	num, pairs       []pair
	cat              []table
	vals, vacc, vbuf []value
	cells            []cell
}

var mergers = sync.Pool{New: func() any { return new(merger) }}

// reset readies the merger for a dictionary of n attributes.
func (m *merger) reset(n int) {
	m.acc = slices.Grow(m.acc[:0], n)[:n]
	clear(m.acc)
	m.touched = m.touched[:0]
}

// fold merges a run of pairs into the accumulators, remap (nil for none)
// renumbering its attributes into the result's dictionary.
func (m *merger) fold(run []pair, remap []int32) {
	for i := range run {
		g := run[i].attr
		if remap != nil {
			g = remap[g]
		}
		if !m.acc[g].has {
			m.touched = append(m.touched, g)
		}
		m.acc[g].merge(&run[i].stat)
	}
}

// emit appends what the accumulators hold to dst, ascending by attribute,
// and clears them.
func (m *merger) emit(dst []pair) []pair {
	slices.Sort(m.touched)
	for _, g := range m.touched {
		dst = append(dst, pair{g, m.acc[g].stat})
		m.acc[g] = cubeStat{}
	}
	m.touched = m.touched[:0]
	return dst
}

// merge merges parts into out, in order. The result's dictionary is the
// union of the parts' — sorted like theirs, so each part's ordinals map
// into it in order and every run ascending by attribute stays ascending.
func (m *merger) merge(out *Summary, parts []*Summary) *Summary {
	if slices.Contains(parts, nil) {
		parts = slices.DeleteFunc(slices.Clone(parts), func(p *Summary) bool { return p == nil })
	}
	m.dict = m.dict[:0]
	var last []AttrRef
	for _, p := range parts {
		out.Rows += p.Rows
		if !slices.Equal(p.attrs, last) { // parts mostly share one dictionary
			m.dict, last = append(m.dict, p.attrs...), p.attrs
		}
	}
	slices.SortFunc(m.dict, compareRefs)
	m.dict = slices.Compact(m.dict)
	m.reset(len(m.dict))
	m.remap, m.starts = m.remap[:0], m.starts[:0]
	for _, p := range parts {
		m.starts = append(m.starts, len(m.remap))
		for _, ref := range p.attrs {
			g, _ := slices.BinarySearchFunc(m.dict, ref, compareRefs)
			m.remap = append(m.remap, int32(g))
		}
	}
	m.starts = append(m.starts, len(m.remap))
	remap := func(k int) []int32 { return m.remap[m.starts[k]:m.starts[k+1]] }

	for k, p := range parts {
		m.fold(p.num, remap(k))
	}
	m.num = m.emit(m.num[:0])

	// Categorical tables, attribute by attribute: each part's are in
	// attribute order, so one cursor per part walks them.
	m.cat, m.vals = m.cat[:0], m.vals[:0]
	m.next = slices.Grow(m.next[:0], len(parts))[:len(parts)]
	clear(m.next)
	for g := range m.dict {
		m.vacc = m.vacc[:0]
		has := false
		for k, p := range parts {
			if i := m.next[k]; i < len(p.cat) && remap(k)[p.cat[i].attr] == int32(g) {
				t := p.cat[i]
				m.vbuf = unionValues(m.vbuf[:0], m.vacc, p.vals[t.lo:t.hi])
				m.vacc, m.vbuf = m.vbuf, m.vacc
				has = true
				m.next[k]++
			}
		}
		if has {
			lo := len(m.vals)
			m.vals = append(m.vals, m.vacc...)
			m.cat = append(m.cat, table{int32(g), int32(lo), int32(len(m.vals))})
		}
	}

	// Cells in id order: each part's next cell is its smallest not yet
	// merged, and the parts holding the smallest of those merge it in part
	// order.
	m.cells, m.pairs = m.cells[:0], m.pairs[:0]
	clear(m.next)
	for {
		id, found := int64(0), false
		for k, p := range parts {
			if i := m.next[k]; i < len(p.cells) && (!found || p.cells[i].id < id) {
				id, found = p.cells[i].id, true
			}
		}
		if !found {
			break
		}
		c := cell{id: id, lo: int32(len(m.pairs))}
		for k, p := range parts {
			if i := m.next[k]; i < len(p.cells) && p.cells[i].id == id {
				pc := &p.cells[i]
				c.rows += pc.rows
				m.fold(p.pairs[pc.lo:pc.hi], remap(k))
				m.next[k]++
			}
		}
		m.pairs = m.emit(m.pairs)
		c.hi = int32(len(m.pairs))
		m.cells = append(m.cells, c)
	}

	out.attrs, out.num, out.cat, out.vals = exact(m.dict), exact(m.num), exact(m.cat), exact(m.vals)
	out.cells, out.pairs = exact(m.cells), exact(m.pairs)
	return out
}

// cube is the dense accumulator a Folder folds rows in: an attribute
// dictionary (refs, ords) in the order attributes are met; per attribute
// its stats (num), present once an input carries the key, and its
// categorical value table (cat) into vals; and a cell-ordinal table with
// row counts beside a cell-ordinal × attribute slab of stats (cells). Every
// attribute is entered before the first cell, so the slab never widens.
// Each key accumulates in input order with the row fold's arithmetic, and
// flatten sorts the cube into a flat Summary.
type cube struct {
	rows int64

	refs []AttrRef
	ords map[AttrRef]int32
	num  []cubeStat         // per attribute
	cat  []map[string]int32 // per attribute: value -> index into vals; nil until an input carries the attribute
	vals []value

	cellOrd  map[int64]int32
	cellIDs  []int64    // per cell ordinal
	cellRows []int64    // per cell ordinal
	cells    []cubeStat // cell ordinal × len(refs) + attribute

	// load's and flatten's scratch
	local, order, rank, perm []int32
	tab                      []value
}

// reset empties the cube, keeping its storage.
func (c *cube) reset() {
	c.rows = 0
	if c.ords == nil {
		c.ords, c.cellOrd = make(map[AttrRef]int32), make(map[int64]int32)
	}
	clear(c.ords)
	clear(c.cellOrd)
	clear(c.vals) // no strings kept alive
	c.refs, c.num, c.cat, c.vals = c.refs[:0], c.num[:0], c.cat[:0], c.vals[:0]
	c.cellIDs, c.cellRows, c.cells = c.cellIDs[:0], c.cellRows[:0], c.cells[:0]
}

// attr returns ref's ordinal, entering it in the dictionary on first sight.
func (c *cube) attr(ref AttrRef) int32 {
	if g, ok := c.ords[ref]; ok {
		return g
	}
	if len(c.cellIDs) > 0 {
		panic("highlights: an attribute after the first cell")
	}
	g := int32(len(c.refs))
	c.ords[ref] = g
	c.refs = append(c.refs, ref)
	c.num = append(c.num, cubeStat{})
	c.cat = append(c.cat, nil)
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
		c.vals = append(c.vals, value{v: v})
	}
	return i
}

// cell returns id's ordinal: a new cell gets a zeroed row of the slab,
// which grows with the cell table's capacity.
func (c *cube) cell(id int64) int32 {
	if o, ok := c.cellOrd[id]; ok {
		return o
	}
	o := int32(len(c.cellIDs))
	c.cellOrd[id] = o
	c.cellIDs = append(c.cellIDs, id)
	c.cellRows = append(c.cellRows, 0)
	w := len(c.refs)
	c.cells = slices.Grow(c.cells, cap(c.cellIDs)*w-len(c.cells))[:len(c.cells)+w]
	clear(c.cells[len(c.cells)-w:])
	return o
}

// at is cell o's stats of attribute g.
func (c *cube) at(o, g int32) *cubeStat { return &c.cells[int(o)*len(c.refs)+int(g)] }

// load enters what s holds into the cube, which holds no cell yet: a fold
// continues each key from the stats s has for it.
func (c *cube) load(s *Summary) {
	c.rows += s.Rows
	g := c.local[:0]
	for _, ref := range s.attrs {
		g = append(g, c.attr(ref))
	}
	c.local = g
	for _, p := range s.num {
		c.num[g[p.attr]] = cubeStat{true, p.stat}
	}
	for _, t := range s.cat {
		tab := c.table(g[t.attr], int(t.hi-t.lo))
		for _, v := range s.vals[t.lo:t.hi] {
			c.vals[c.value(tab, v.v)] = v
		}
	}
	for _, sc := range s.cells {
		o := c.cell(sc.id)
		c.cellRows[o] += sc.rows
		for _, p := range s.pairs[sc.lo:sc.hi] {
			*c.at(o, g[p.attr]) = cubeStat{true, p.stat}
		}
	}
}

// flatten puts the cube into s, replacing what s held: the attributes it
// holds entries for in sorted order, its cells in id order, every array at
// its size.
func (c *cube) flatten(s *Summary) {
	w := len(c.refs)
	used := make([]bool, w)
	npairs := 0
	for i := range c.cells {
		if c.cells[i].has {
			used[i%w] = true
			npairs++
		}
	}
	c.order = c.order[:0]
	nnum, nvals, ncat := 0, 0, 0
	for g := range c.refs {
		if c.num[g].has || c.cat[g] != nil || used[g] {
			c.order = append(c.order, int32(g))
		}
		if c.num[g].has {
			nnum++
		}
		if c.cat[g] != nil {
			ncat++
			nvals += len(c.cat[g])
		}
	}
	slices.SortFunc(c.order, func(x, y int32) int { return compareRefs(c.refs[x], c.refs[y]) })
	c.rank = slices.Grow(c.rank[:0], w)[:w]

	s.Rows = c.rows
	s.attrs, s.num, s.cat, s.vals = sized[AttrRef](len(c.order)), sized[pair](nnum), sized[table](ncat), sized[value](nvals)
	for r, g := range c.order {
		c.rank[g] = int32(r)
		s.attrs = append(s.attrs, c.refs[g])
		if c.num[g].has {
			s.num = append(s.num, pair{int32(r), c.num[g].stat})
		}
		if c.cat[g] != nil {
			c.tab = c.tab[:0]
			for _, i := range c.cat[g] {
				c.tab = append(c.tab, c.vals[i])
			}
			slices.SortFunc(c.tab, func(x, y value) int { return strings.Compare(x.v, y.v) })
			lo := len(s.vals)
			s.vals = append(s.vals, c.tab...)
			s.cat = append(s.cat, table{int32(r), int32(lo), int32(len(s.vals))})
		}
	}
	clear(c.tab)

	c.perm = slices.Grow(c.perm[:0], len(c.cellIDs))[:len(c.cellIDs)]
	for o := range c.perm {
		c.perm[o] = int32(o)
	}
	slices.SortFunc(c.perm, func(x, y int32) int { return cmp.Compare(c.cellIDs[x], c.cellIDs[y]) })
	s.cells, s.pairs = sized[cell](len(c.perm)), sized[pair](npairs)
	for _, o := range c.perm {
		sc := cell{id: c.cellIDs[o], rows: c.cellRows[o], lo: int32(len(s.pairs))}
		for _, g := range c.order {
			if cs := c.at(o, g); cs.has {
				s.pairs = append(s.pairs, pair{c.rank[g], cs.stat})
			}
		}
		sc.hi = int32(len(s.pairs))
		s.cells = append(s.cells, sc)
	}
}
