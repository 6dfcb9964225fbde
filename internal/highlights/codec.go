package highlights

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"
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
// run.
func (s *Summary) EncodedLen() int {
	if b := s.enc.Load(); b != nil {
		return len(*b)
	}
	return 0
}

// encode computes the binary form. Its dictionary holds the attributes the
// summary has entries for, renumbered in order: a restricted summary shares
// its parent's, and a decoded one holds what its encoding held.
func (s *Summary) encode() []byte {
	ords := make([]uint64, len(s.attrs)) // 1 + the encoding's ordinal, 0 while unused
	for _, p := range s.num {
		ords[p.attr] = 1
	}
	for _, t := range s.cat {
		ords[t.attr] = 1
	}
	pairs := 0
	for _, c := range s.cells {
		pairs += int(c.hi - c.lo)
		for _, p := range s.pairs[c.lo:c.hi] {
			ords[p.attr] = 1
		}
	}
	n := uint64(0)
	for i := range ords {
		if ords[i] != 0 {
			n++
			ords[i] = n
		}
	}

	// A capacity hint: an entry of each kind rarely takes more.
	size := 64 + 32*len(s.attrs) + 64*(len(s.num)+pairs) + 16*len(s.cells) + 48*len(s.vals)
	b := append(make([]byte, 0, size), binaryHeader...)
	b = appendStamp(b, stampAt(s.Period.From))
	b = appendStamp(b, stampAt(s.Period.To))
	b = binary.AppendVarint(b, s.Rows)

	b = binary.AppendUvarint(b, n)
	for i, ref := range s.attrs {
		if ords[i] != 0 {
			b = appendString(b, ref.Table)
			b = appendString(b, ref.Attr)
		}
	}

	b = binary.AppendUvarint(b, uint64(len(s.num)))
	for i := range s.num {
		b = appendStats(binary.AppendUvarint(b, ords[s.num[i].attr]-1), &s.num[i].stat)
	}

	b = binary.AppendUvarint(b, uint64(len(s.cat)))
	for _, t := range s.cat {
		b = binary.AppendUvarint(b, ords[t.attr]-1)
		b = binary.AppendUvarint(b, uint64(t.hi-t.lo))
		for _, v := range s.vals[t.lo:t.hi] {
			b = appendString(b, v.v)
			b = binary.AppendUvarint(b, uint64(v.count))
			b = appendStamp(b, v.first)
			b = appendStamp(b, v.last)
		}
	}

	b = binary.AppendUvarint(b, uint64(len(s.cells)))
	b = binary.AppendUvarint(b, uint64(pairs))
	for i, c := range s.cells {
		if i == 0 {
			b = binary.AppendVarint(b, c.id)
		} else {
			b = binary.AppendUvarint(b, uint64(c.id)-uint64(s.cells[i-1].id))
		}
		b = binary.AppendVarint(b, c.rows)
		b = binary.AppendUvarint(b, uint64(c.hi-c.lo))
		for j := c.lo; j < c.hi; j++ {
			b = appendStats(binary.AppendUvarint(b, ords[s.pairs[j].attr]-1), &s.pairs[j].stat)
		}
	}
	return exact(b) // what the summary retains is the encoding's size
}

func appendStamp(b []byte, t stamp) []byte {
	return binary.AppendUvarint(binary.AppendVarint(b, t.sec-unixToInternal), uint64(t.nsec))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStats(b []byte, st *stat) []byte {
	b = binary.AppendUvarint(b, uint64(st.n))
	for _, f := range [4]float64{st.sum, st.sq, st.min, st.max} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return appendStamp(b, st.peak)
}

// Decode deserializes a summary produced by Encode, or by the gob encoding
// persisted summaries had before the binary form.
func Decode(data []byte) (*Summary, error) {
	if bytes.HasPrefix(data, binaryHeader[:1]) {
		return DecodeBinary(data)
	}
	var g gobSummary
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return nil, fmt.Errorf("highlights: decode: %w", err)
	}
	return g.summary(), nil
}

// gobSummary is the shape summaries were gob-encoded in.
type gobSummary struct {
	Period telco.TimeRange
	Rows   int64
	Num    map[AttrRef]*Stats
	Cat    map[AttrRef]map[string]*ValStat
	Cells  map[int64]*struct {
		Rows int64
		Num  map[AttrRef]*Stats
	}
}

// summary enters g into a cube — every attribute first, then the cells —
// and writes the cube out.
func (g *gobSummary) summary() *Summary {
	var c cube
	c.reset()
	c.rows = g.Rows
	stat := func(st *Stats) cubeStat {
		return cubeStat{true, stat{st.NonNull, st.Sum, st.SumSq, st.Min, st.Max, stampAt(st.PeakTime)}}
	}
	for ref, st := range g.Num {
		c.num[c.attr(ref)] = stat(st)
	}
	for ref, vals := range g.Cat {
		tab := c.table(c.attr(ref), len(vals))
		for v, vs := range vals {
			c.vals[c.value(tab, v)] = value{v, vs.Count, stampAt(vs.First), stampAt(vs.Last)}
		}
	}
	for _, cs := range g.Cells {
		for ref := range cs.Num {
			c.attr(ref)
		}
	}
	for id, cs := range g.Cells {
		o := c.cell(id)
		c.cellRows[o] = cs.Rows
		for ref, st := range cs.Num {
			*c.at(o, c.attr(ref)) = stat(st)
		}
	}
	s := NewSummary(g.Period)
	c.flatten(s)
	return s
}

// DecodeBinary deserializes the binary form alone — what crosses the wire,
// where nothing legacy is expected — filling the summary's arrays straight
// from the bytes, and enforcing every rule of the format. Unlike gob's, its
// allocations are bounded by the length of data: every count is checked
// against the bytes left before anything is sized by it. A failure sticks
// (every read after it is a zero value), so the decoder checks for one once
// per section, before anything is sized by what it read.
func DecodeBinary(data []byte) (*Summary, error) {
	if !bytes.HasPrefix(data, binaryHeader) {
		return nil, errors.New("highlights: decode: not a binary summary (or an unknown version)")
	}
	d := decoder{b: data[len(binaryHeader):]}
	from, to := d.stamp(), d.stamp()
	rows := d.varint()
	attrs := d.count(2)
	if d.err != nil {
		return nil, d.err
	}
	s := &Summary{Rows: rows, attrs: sized[AttrRef](attrs)}
	var prevTable, prevAttr []byte
	for i := 0; i < attrs; i++ {
		table, attr := d.bytes(), d.bytes()
		if i > 0 && compareRawRefs(prevTable, prevAttr, table, attr) >= 0 {
			d.fail("attributes out of order")
		}
		if d.err == nil {
			s.attrs = append(s.attrs, AttrRef{Table: string(table), Attr: string(attr)})
		}
		prevTable, prevAttr = table, attr
	}

	n := d.count(minPair)
	if d.err != nil {
		return nil, d.err
	}
	s.num = sized[pair](n)
	prev := -1
	for i := 0; i < n; i++ {
		a, st := d.attr(attrs, &prev), d.stats()
		s.num = append(s.num, pair{int32(a), st})
	}

	n = d.count(2)
	if d.err != nil {
		return nil, d.err
	}
	s.cat = sized[table](n)
	prev = -1
	for i := 0; i < n; i++ {
		a, m := d.attr(attrs, &prev), d.count(minValue)
		s.vals = slices.Grow(s.vals, m)
		s.cat = append(s.cat, table{int32(a), int32(len(s.vals)), int32(len(s.vals) + m)})
		var last []byte
		for j := 0; j < m; j++ {
			val := d.bytes()
			if j > 0 && bytes.Compare(val, last) <= 0 {
				d.fail("values of attribute %d out of order", a)
			}
			last = val
			count := d.uvarint()
			first, lastSeen := d.stamp(), d.stamp()
			s.vals = append(s.vals, value{string(val), int64(count), first, lastSeen})
		}
	}

	n = d.count(minCell)
	pairs := d.count(minPair)
	if d.err == nil && n*minCell+pairs*minPair > len(d.b) {
		d.fail("%d cells with %d attributes in %d bytes", n, pairs, len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	s.vals = exact(s.vals) // the size a fold gives it
	s.cells, s.pairs = sized[cell](n), sized[pair](pairs)
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
			k = 0
		}
		prev = -1
		for j := 0; j < k; j++ {
			a, st := d.attr(attrs, &prev), d.stats()
			s.pairs = append(s.pairs, pair{int32(a), st})
		}
		s.cells = append(s.cells, cell{id, rows, int32(len(s.pairs) - k), int32(len(s.pairs))})
		left -= k
	}
	if left != 0 {
		d.fail("cells hold %d of %d attributes", pairs-left, pairs)
	}
	if len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	s.Period = telco.TimeRange{From: from.time(), To: to.time()}
	return s, nil
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

// stampAt is t as the encoding holds it.
func stampAt(t time.Time) stamp { return stamp{t.Unix() + unixToInternal, int64(t.Nanosecond())} }

func (t stamp) before(u stamp) bool { return t.sec < u.sec || t.sec == u.sec && t.nsec < u.nsec }

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

func (d *decoder) stats() stat {
	n := d.uvarint()
	if d.err != nil {
		return stat{}
	}
	b := d.b
	if len(b) < 4*8 {
		d.fail("truncated stats")
		return stat{}
	}
	d.b = b[4*8:]
	return stat{
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
