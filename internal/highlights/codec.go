package highlights

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"spate/internal/telco"
)

// A Summary has one encoding, used for the persisted index
// (/spate/index/*) and for the parts a cluster shard ships. Version 1:
//
//	header   0x80 "SPSM" 0x01
//	period   time From, time To
//	rows     varint
//	attrs    uvarint n, n × (string table, string attr)      sorted, each once
//	num      uvarint n, n × (uvarint attr, stats)             attrs ascending
//	cat      uvarint n, n × (uvarint attr, uvarint m,
//	                         m × (string value, valstat))     attrs, values ascending
//	cells    uvarint n, uvarint pairs, n × (id, varint rows,
//	                         uvarint k, k × (uvarint attr, stats))
//
// attr is an ordinal into attrs. Cell ids ascend: the first is a varint, each
// later one a uvarint delta ≥ 1 from the one before; pairs is the sum of the
// cells' k.
//
//	stats    uvarint NonNull, float64 Sum, SumSq, Min, Max, time PeakTime
//	valstat  uvarint Count, time First, time Last
//	time     varint Unix seconds, uvarint nanoseconds (UTC)
//	string   uvarint length, bytes
//	float64  IEEE 754 bits, little-endian
//
// Every float and time comes back bit for bit, the zero time included.
// Encode is deterministic. The leading byte is one no gob stream starts with
// (gob opens with a uint: below 0x80, or a negated byte count in 0xF8–0xFF),
// so Decode tells the form from the gob the index held before it.
var binaryHeader = []byte{0x80, 'S', 'P', 'S', 'M', 1}

// Smallest encodings, which bound every count Decode reads by the bytes left.
const (
	minStats = 1 + 4*8 + 2   // NonNull, four floats, PeakTime
	minPair  = 1 + minStats  // attribute ordinal, stats
	minCell  = 3             // id, rows, pair count
	minValue = 1 + 1 + 2 + 2 // value, Count, First, Last
)

// Encode serializes the summary in its binary form. It never fails; the
// error is part of the signature every summary encoding has had.
//
// The bytes are computed once per summary and memoized, so a summary that
// is persisted, cached or shipped in many frames is encoded once. Every
// caller gets the same slice and must not modify it; and a summary must not
// be modified once it has been encoded (summaries are read-only once built).
// Encode is safe for concurrent use: racing first calls each compute the
// same bytes, and one of them is kept.
func (s *Summary) Encode() ([]byte, error) {
	if b := s.enc.Load(); b != nil {
		return *b, nil
	}
	b := s.encode()
	if !s.enc.CompareAndSwap(nil, &b) {
		return *s.enc.Load(), nil
	}
	return b, nil
}

// EncodedLen is the length of the memoized encoding: 0 until Encode has
// run, the bytes the summary retains for it after.
func (s *Summary) EncodedLen() int {
	if b := s.enc.Load(); b != nil {
		return len(*b)
	}
	return 0
}

// encode computes the binary form.
func (s *Summary) encode() []byte {
	// The attribute dictionary: every AttrRef once, in sorted order.
	ords := make(map[AttrRef]uint64, len(s.Num)+len(s.Cat))
	for ref := range s.Num {
		ords[ref] = 0
	}
	for ref := range s.Cat {
		ords[ref] = 0
	}
	ids := make([]int64, 0, len(s.Cells))
	pairs := 0
	for id, cs := range s.Cells {
		ids = append(ids, id)
		pairs += len(cs.Num)
		for ref := range cs.Num {
			ords[ref] = 0
		}
	}
	refs := make([]AttrRef, 0, len(ords))
	for ref := range ords {
		refs = append(refs, ref)
	}
	slices.SortFunc(refs, compareRefs)
	for i, ref := range refs {
		ords[ref] = uint64(i)
	}
	slices.Sort(ids)

	// A capacity hint: an entry of each kind rarely takes more.
	size := 64 + 32*len(refs) + 64*(len(s.Num)+pairs) + 16*len(ids)
	for _, vals := range s.Cat {
		size += 48 * len(vals)
	}
	b := append(make([]byte, 0, size), binaryHeader...)
	b = appendTime(b, s.Period.From)
	b = appendTime(b, s.Period.To)
	b = binary.AppendVarint(b, s.Rows)

	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, ref := range refs {
		b = appendString(b, ref.Table)
		b = appendString(b, ref.Attr)
	}

	b = binary.AppendUvarint(b, uint64(len(s.Num)))
	for _, ref := range refs {
		if st, ok := s.Num[ref]; ok {
			b = appendStats(binary.AppendUvarint(b, ords[ref]), st)
		}
	}

	b = binary.AppendUvarint(b, uint64(len(s.Cat)))
	var values []string
	for _, ref := range refs {
		vals, ok := s.Cat[ref]
		if !ok {
			continue
		}
		b = binary.AppendUvarint(b, ords[ref])
		b = binary.AppendUvarint(b, uint64(len(vals)))
		values = values[:0]
		for v := range vals {
			values = append(values, v)
		}
		slices.Sort(values)
		for _, v := range values {
			vs := vals[v]
			b = appendString(b, v)
			b = binary.AppendUvarint(b, uint64(vs.Count))
			b = appendTime(b, vs.First)
			b = appendTime(b, vs.Last)
		}
	}

	b = binary.AppendUvarint(b, uint64(len(ids)))
	b = binary.AppendUvarint(b, uint64(pairs))
	type pair struct {
		ord uint64
		st  *Stats
	}
	var cellPairs []pair
	for i, id := range ids {
		if i == 0 {
			b = binary.AppendVarint(b, id)
		} else {
			b = binary.AppendUvarint(b, uint64(id)-uint64(ids[i-1]))
		}
		cs := s.Cells[id]
		b = binary.AppendVarint(b, cs.Rows)
		cellPairs = cellPairs[:0]
		for ref, st := range cs.Num {
			cellPairs = append(cellPairs, pair{ords[ref], st})
		}
		slices.SortFunc(cellPairs, func(x, y pair) int { return cmp.Compare(x.ord, y.ord) })
		b = binary.AppendUvarint(b, uint64(len(cellPairs)))
		for _, p := range cellPairs {
			b = appendStats(binary.AppendUvarint(b, p.ord), p.st)
		}
	}
	return b
}

func compareRefs(x, y AttrRef) int {
	if c := strings.Compare(x.Table, y.Table); c != 0 {
		return c
	}
	return strings.Compare(x.Attr, y.Attr)
}

func appendTime(b []byte, t time.Time) []byte {
	return binary.AppendUvarint(binary.AppendVarint(b, t.Unix()), uint64(t.Nanosecond()))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStats(b []byte, st *Stats) []byte {
	b = binary.AppendUvarint(b, uint64(st.NonNull))
	for _, f := range [4]float64{st.Sum, st.SumSq, st.Min, st.Max} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return appendTime(b, st.PeakTime)
}

// Decode deserializes a summary produced by Encode, or by the gob encoding
// persisted summaries had before the binary form.
func Decode(data []byte) (*Summary, error) {
	if bytes.HasPrefix(data, binaryHeader[:1]) {
		return DecodeBinary(data)
	}
	var s Summary
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("highlights: decode: %w", err)
	}
	return &s, nil
}

// DecodeBinary deserializes the binary form alone — what crosses the wire,
// where nothing legacy is expected. Unlike gob's, its allocations are bounded
// by the length of data: every count is checked against the bytes left
// before anything is sized by it.
func DecodeBinary(data []byte) (*Summary, error) {
	b := builder{s: &Summary{}}
	period, err := walk(data, &b)
	if err != nil {
		return nil, err
	}
	b.s.Period = period
	return b.s, nil
}

// CheckBinary checks data the way DecodeBinary does — it accepts exactly
// what DecodeBinary accepts — and returns the summary's period, building
// nothing else and allocating nothing: what a cluster coordinator runs on
// each shard part before it merges the encodings (MergeEncoded).
func CheckBinary(data []byte) (telco.TimeRange, error) { return walk(data, noop{}) }

// A visitor receives a binary summary from walk, section by section, and
// only what walk has checked: a section's count comes before its entries
// and has been checked against the bytes left, attr is an ordinal into the
// attribute dictionary, and the byte slices alias the encoding.
type visitor interface {
	rows(n int64)
	dict(n int)
	attr(i int, table, attr []byte)
	nums(n int)
	num(attr int, st wireStats)
	cats(n int)
	cat(attr, values int)
	value(v []byte, count int64, first, last stamp)
	cells(n, pairs int)
	cell(id, rows int64, attrs int)
	cellNum(attr int, st wireStats)
}

// noop visits nothing: walk with it is the format's check alone.
type noop struct{}

func (noop) rows(int64)                        {}
func (noop) dict(int)                          {}
func (noop) attr(int, []byte, []byte)          {}
func (noop) nums(int)                          {}
func (noop) num(int, wireStats)                {}
func (noop) cats(int)                          {}
func (noop) cat(int, int)                      {}
func (noop) value([]byte, int64, stamp, stamp) {}
func (noop) cells(int, int)                    {}
func (noop) cell(int64, int64, int)            {}
func (noop) cellNum(int, wireStats)            {}

// walk reads one binary summary, enforcing every rule of the format, hands
// what it reads to v and returns the summary's period. It is the format's
// one reader: DecodeBinary, CheckBinary and MergeEncoded differ only in
// their visitor. walk itself allocates nothing.
func walk(data []byte, v visitor) (telco.TimeRange, error) {
	if !bytes.HasPrefix(data, binaryHeader) {
		return telco.TimeRange{}, errors.New("highlights: decode: not a binary summary (or an unknown version)")
	}
	d := decoder{b: data[len(binaryHeader):]}
	from, to := d.stamp(), d.stamp()
	rows := d.varint()
	if d.err != nil {
		return telco.TimeRange{}, d.err
	}
	v.rows(rows)
	attrs := d.count(2)
	if d.err != nil {
		return telco.TimeRange{}, d.err
	}
	v.dict(attrs)
	var prevTable, prevAttr []byte
	for i := 0; i < attrs; i++ {
		table, attr := d.bytes(), d.bytes()
		if i > 0 && compareRawRefs(prevTable, prevAttr, table, attr) >= 0 {
			d.fail("attributes out of order")
		}
		if d.err != nil {
			return telco.TimeRange{}, d.err
		}
		v.attr(i, table, attr)
		prevTable, prevAttr = table, attr
	}

	n := d.count(minPair)
	if d.err != nil {
		return telco.TimeRange{}, d.err
	}
	v.nums(n)
	prev := -1
	for i := 0; i < n; i++ {
		a := d.attr(attrs, &prev)
		st := d.stats()
		if d.err != nil {
			return telco.TimeRange{}, d.err
		}
		v.num(a, st)
	}

	n = d.count(2)
	if d.err != nil {
		return telco.TimeRange{}, d.err
	}
	v.cats(n)
	prev = -1
	for i := 0; i < n; i++ {
		a := d.attr(attrs, &prev)
		m := d.count(minValue)
		if d.err != nil {
			return telco.TimeRange{}, d.err
		}
		v.cat(a, m)
		var last []byte
		for j := 0; j < m; j++ {
			val := d.bytes()
			if j > 0 && bytes.Compare(val, last) <= 0 {
				d.fail("values of attribute %d out of order", a)
			}
			last = val
			count := d.uvarint()
			first, lastSeen := d.stamp(), d.stamp()
			if d.err != nil {
				return telco.TimeRange{}, d.err
			}
			v.value(val, int64(count), first, lastSeen)
		}
	}

	n = d.count(minCell)
	pairs := d.count(minPair)
	if d.err == nil && n*minCell+pairs*minPair > len(d.b) {
		d.fail("%d cells with %d attributes in %d bytes", n, pairs, len(d.b))
	}
	if d.err != nil {
		return telco.TimeRange{}, d.err
	}
	v.cells(n, pairs)
	left := pairs
	var id int64
	for i := 0; i < n; i++ {
		if i == 0 {
			id = d.varint()
		} else if delta := d.uvarint(); delta == 0 || delta > uint64(math.MaxInt64)-uint64(id) {
			d.fail("cell ids out of order")
		} else {
			id = int64(uint64(id) + delta)
		}
		rows := d.varint()
		k := d.count(minPair)
		if k > left {
			d.fail("cells hold more than %d attributes", pairs)
		}
		if d.err != nil {
			return telco.TimeRange{}, d.err
		}
		v.cell(id, rows, k)
		prev = -1
		for j := 0; j < k; j++ {
			a := d.attr(attrs, &prev)
			st := d.stats()
			if d.err != nil {
				return telco.TimeRange{}, d.err
			}
			v.cellNum(a, st)
		}
		left -= k
	}
	if left != 0 {
		d.fail("cells hold %d of %d attributes", pairs-left, pairs)
	}
	if len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return telco.TimeRange{}, d.err
	}
	return telco.TimeRange{From: from.time(), To: to.time()}, nil
}

// compareRawRefs is compareRefs over encoded (table, attr) strings.
func compareRawRefs(table1, attr1, table2, attr2 []byte) int {
	if c := bytes.Compare(table1, table2); c != 0 {
		return c
	}
	return bytes.Compare(attr1, attr2)
}

// stamp is a time as the encoding holds it, its Unix seconds shifted to the
// internal seconds time.Time counts from year 1 (wrapping, like time.Unix,
// for the int64 extremes): the zero stamp is the zero time, and stamps
// order exactly as Before orders the times they decode to.
type stamp struct {
	sec, nsec int64 // nsec below 1e9
}

// unixToInternal is the offset time.Time adds to Unix seconds internally.
const unixToInternal = 62135596800

func (t stamp) time() time.Time { return time.Unix(t.sec-unixToInternal, t.nsec).UTC() }

func (t stamp) before(u stamp) bool { return t.sec < u.sec || t.sec == u.sec && t.nsec < u.nsec }

// wireStats is one encoded Stats, its peak time a stamp.
type wireStats struct {
	n                 int64
	sum, sq, min, max float64
	peak              stamp
}

func (w wireStats) stats() Stats {
	return Stats{NonNull: w.n, Sum: w.sum, SumSq: w.sq, Min: w.min, Max: w.max, PeakTime: w.peak.time()}
}

// decoder reads the binary form; the first failure sticks, and every read
// after it returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("highlights: decode: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a count of entries that take at least min bytes each, failing
// when the bytes left cannot hold that many.
func (d *decoder) count(min int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/min) {
		d.fail("count %d exceeds the %d bytes left", v, len(d.b))
		return 0
	}
	return int(v)
}

// bytes reads a string, aliasing the encoding.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) stamp() stamp {
	sec, nsec := d.varint(), d.uvarint()
	if nsec >= 1e9 {
		d.fail("%d nanoseconds", nsec)
		return stamp{}
	}
	return stamp{sec + unixToInternal, int64(nsec)}
}

func (d *decoder) stats() wireStats {
	n := d.uvarint()
	if d.err != nil {
		return wireStats{}
	}
	b := d.b
	if len(b) < 4*8 {
		d.fail("truncated stats")
		return wireStats{}
	}
	d.b = b[4*8:]
	return wireStats{
		n:    int64(n),
		sum:  math.Float64frombits(binary.LittleEndian.Uint64(b)),
		sq:   math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		min:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		max:  math.Float64frombits(binary.LittleEndian.Uint64(b[24:32])),
		peak: d.stamp(),
	}
}

// attr reads an attribute ordinal, which must ascend past *prev and lie
// below n.
func (d *decoder) attr(n int, prev *int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v >= uint64(n) || int(v) <= *prev {
		d.fail("attribute %d out of order or past %d", v, n)
		return 0
	}
	*prev = int(v)
	return int(v)
}

// builder is DecodeBinary's visitor: it builds the map-shaped Summary,
// carving Stats, ValStats and CellStats out of slabs sized by the counts.
type builder struct {
	s        *Summary
	refs     []AttrRef
	numSlab  []Stats
	vals     map[string]*ValStat
	valSlab  []ValStat
	cellSlab []CellStats
	statSlab []Stats
	cur      *CellStats
}

func (b *builder) rows(n int64) { b.s.Rows = n }
func (b *builder) dict(n int)   { b.refs = make([]AttrRef, n) }

func (b *builder) attr(i int, table, attr []byte) {
	b.refs[i] = AttrRef{Table: string(table), Attr: string(attr)}
}

func (b *builder) nums(n int) {
	b.s.Num = make(map[AttrRef]*Stats, n)
	b.numSlab = make([]Stats, n)
}

func (b *builder) num(attr int, st wireStats) {
	p := &b.numSlab[0]
	b.numSlab = b.numSlab[1:]
	*p = st.stats()
	b.s.Num[b.refs[attr]] = p
}

func (b *builder) cats(n int) { b.s.Cat = make(map[AttrRef]map[string]*ValStat, n) }

func (b *builder) cat(attr, values int) {
	b.valSlab = make([]ValStat, values)
	b.vals = make(map[string]*ValStat, values)
	b.s.Cat[b.refs[attr]] = b.vals
}

func (b *builder) value(v []byte, count int64, first, last stamp) {
	p := &b.valSlab[0]
	b.valSlab = b.valSlab[1:]
	*p = ValStat{Count: count, First: first.time(), Last: last.time()}
	b.vals[string(v)] = p
}

func (b *builder) cells(n, pairs int) {
	b.s.Cells = make(map[int64]*CellStats, n)
	b.cellSlab = make([]CellStats, n)
	b.statSlab = make([]Stats, pairs)
}

func (b *builder) cell(id, rows int64, attrs int) {
	c := &b.cellSlab[0]
	b.cellSlab = b.cellSlab[1:]
	*c = CellStats{Rows: rows, Num: make(map[AttrRef]*Stats, attrs)}
	b.s.Cells[id] = c
	b.cur = c
}

func (b *builder) cellNum(attr int, st wireStats) {
	p := &b.statSlab[0]
	b.statSlab = b.statSlab[1:]
	*p = st.stats()
	b.cur.Num[b.refs[attr]] = p
}
