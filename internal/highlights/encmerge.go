package highlights

import "spate/internal/telco"

// MergeEncoded is Merge over parts in their binary form (Encode): the parts
// fold straight from their bytes, in order, into one dense accumulator — a
// global attribute dictionary, per-attribute stats, and a cell-ordinal ×
// attribute slab like Folder's — and the map-shaped Summary is written
// once, at the end. Every (cell, attribute) key merges in part order with
// Merge's arithmetic, so the result equals Merge(period, DecodeBinary(p)...)
// bit for bit. A part that does not decode fails the merge.
func MergeEncoded(period telco.TimeRange, parts [][]byte) (*Summary, error) {
	var m merger
	for _, p := range parts {
		if _, _, err := walk(p, &m); err != nil {
			return nil, err
		}
	}
	return m.summary(period), nil
}

// merger is MergeEncoded's visitor.
type merger struct {
	total   int64
	refs    []AttrRef          // the global attribute dictionary
	ords    map[string]int     // an attribute's encoded dictionary entry -> its global ordinal
	local   []int              // the part being walked: its ordinals -> global ordinals
	numAcc  []mergeStats       // per global ordinal
	catVals []map[string]int32 // per global ordinal: value -> index into vals; nil when absent
	vals    []mergeVal
	inCat   map[string]int32 // the categorical attribute being walked

	cellOrd  map[int64]int32 // cell id -> ordinal
	cellIDs  []int64         // per ordinal
	cellRows []int64         // per ordinal
	slot     []int           // global ordinal -> per-cell slot, -1 until a cell carries it
	slotAttr []int           // per-cell slot -> global ordinal
	cellAcc  [][]mergeStats  // per slot, per cell ordinal
	inCell   int32           // the cell being walked
}

// mergeStats is Stats as Merge accumulates it, present once any part
// carried the key (even with no values: Merge keeps such entries).
type mergeStats struct {
	has bool
	wireStats
}

// merge is Stats.merge.
func (s *mergeStats) merge(o *wireStats) {
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

// mergeVal is ValStat as Merge accumulates it.
type mergeVal struct {
	count       int64
	first, last stamp
}

// merge is ValStat.merge.
func (v *mergeVal) merge(count int64, first, last stamp) {
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

func (m *merger) rows(n int64) { m.total += n }
func (m *merger) dict(n int)   { m.local = m.local[:0] }

func (m *merger) attr(_ int, table, attr, key []byte) {
	g, ok := m.ords[string(key)]
	if !ok {
		if m.ords == nil {
			m.ords = make(map[string]int)
		}
		g = len(m.refs)
		m.ords[string(key)] = g
		m.refs = append(m.refs, AttrRef{Table: string(table), Attr: string(attr)})
		m.numAcc = append(m.numAcc, mergeStats{})
		m.catVals = append(m.catVals, nil)
		m.slot = append(m.slot, -1)
	}
	m.local = append(m.local, g)
}

func (m *merger) nums(int) {}

func (m *merger) num(attr int, st wireStats) { m.numAcc[m.local[attr]].merge(&st) }

func (m *merger) cats(int) {}

func (m *merger) cat(attr, values int) {
	g := m.local[attr]
	if m.catVals[g] == nil {
		m.catVals[g] = make(map[string]int32, values)
	}
	m.inCat = m.catVals[g]
}

func (m *merger) value(v []byte, count int64, first, last stamp) {
	i, ok := m.inCat[string(v)]
	if !ok {
		i = int32(len(m.vals))
		m.inCat[string(v)] = i
		m.vals = append(m.vals, mergeVal{})
	}
	m.vals[i].merge(count, first, last)
}

func (m *merger) cells(n, _ int) {
	if m.cellOrd == nil {
		m.cellOrd = make(map[int64]int32, n)
	}
}

func (m *merger) cell(id, rows int64, _ int) {
	o, ok := m.cellOrd[id]
	if !ok {
		o = int32(len(m.cellIDs))
		m.cellOrd[id] = o
		m.cellIDs = append(m.cellIDs, id)
		m.cellRows = append(m.cellRows, 0)
		for s := range m.cellAcc {
			m.cellAcc[s] = append(m.cellAcc[s], mergeStats{})
		}
	}
	m.cellRows[o] += rows
	m.inCell = o
}

func (m *merger) cellNum(attr int, st wireStats) {
	g := m.local[attr]
	s := m.slot[g]
	if s < 0 {
		s = len(m.cellAcc)
		m.slot[g] = s
		m.slotAttr = append(m.slotAttr, g)
		m.cellAcc = append(m.cellAcc, make([]mergeStats, len(m.cellIDs), cap(m.cellIDs)))
	}
	m.cellAcc[s][m.inCell].merge(&st)
}

// summary writes the accumulated merge as a Summary over period, its Stats,
// ValStats and CellStats carved out of one slab each.
func (m *merger) summary(period telco.TimeRange) *Summary {
	s := &Summary{Period: period, Rows: m.total}
	nums, pairs := 0, 0
	for i := range m.numAcc {
		if m.numAcc[i].has {
			nums++
		}
	}
	perCell := make([]int, len(m.cellIDs)) // each cell's attribute count
	for _, col := range m.cellAcc {
		for o := range col {
			if col[o].has {
				perCell[o]++
				pairs++
			}
		}
	}
	stats := make([]Stats, nums+pairs)
	next := func(w *wireStats) *Stats {
		p := &stats[0]
		stats = stats[1:]
		*p = w.stats()
		return p
	}

	s.Num = make(map[AttrRef]*Stats, nums)
	for g := range m.numAcc {
		if m.numAcc[g].has {
			s.Num[m.refs[g]] = next(&m.numAcc[g].wireStats)
		}
	}

	cats := 0
	for _, vals := range m.catVals {
		if vals != nil {
			cats++
		}
	}
	s.Cat = make(map[AttrRef]map[string]*ValStat, cats)
	valSlab := make([]ValStat, len(m.vals))
	for g, vals := range m.catVals {
		if vals == nil {
			continue
		}
		out := make(map[string]*ValStat, len(vals))
		for v, i := range vals {
			mv := &m.vals[i]
			p := &valSlab[i]
			*p = ValStat{Count: mv.count, First: mv.first.time(), Last: mv.last.time()}
			out[v] = p
		}
		s.Cat[m.refs[g]] = out
	}

	s.Cells = make(map[int64]*CellStats, len(m.cellIDs))
	cells := make([]CellStats, len(m.cellIDs))
	for o, id := range m.cellIDs {
		c := &cells[o]
		*c = CellStats{Rows: m.cellRows[o], Num: make(map[AttrRef]*Stats, perCell[o])}
		for sl, col := range m.cellAcc {
			if col[o].has {
				c.Num[m.refs[m.slotAttr[sl]]] = next(&col[o].wireStats)
			}
		}
		s.Cells[id] = c
	}
	return s
}
