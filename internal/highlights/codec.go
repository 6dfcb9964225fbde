package highlights

import (
	"bytes"
	"crypto/sha256"
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
// (/spate/index/*), for the parts a cluster shard ships and for the sealed
// epoch leaves an engine keeps in memory. Version 2:
//
//	header   0x80 "SPSM" 0x02
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
//	stats    uvarint NonNull, float Sum, SumSq, Min, Max, peak PeakTime
//	float    uvarint u: an integral value v with |v| < 2^53 that is not −0
//	         is u = zigzag(v) << 1; any other value is u = 1 followed by
//	         its IEEE 754 bits, little-endian
//	peak     varint seconds after From's, uvarint nanoseconds
//	valstat  uvarint Count, time First, time Last
//	time     varint Unix seconds, uvarint nanoseconds (UTC)
//	string   uvarint length, bytes
//
// Each float has one encoding: a value the integer form can hold is never
// tagged. Summed counters are integral, so most stats take a byte or two a
// float. Version 1, which stores written before version 2 hold, differs in
// stats alone: the four floats are their 8 raw bytes each, and PeakTime is a
// time. Encode writes version 2; Decode and DecodeBinary read both.
//
// Every float and time comes back bit for bit, NaN, ±Inf, −0 and the zero
// time included (seconds wrap like int64 arithmetic, so any PeakTime is a
// delta from any From). Encode is deterministic. The leading byte is one no
// gob stream starts with (gob opens with a uint: below 0x80, or a negated
// byte count in 0xF8–0xFF), so Decode tells the form from the gob the index
// held before it.
var binaryHeader = []byte{0x80, 'S', 'P', 'S', 'M', 2}

// Smallest encodings, which bound every count Decode reads by the bytes left.
// A pair's smallest encoding depends on the version (version 1: NonNull,
// four 8-byte floats and a time; version 2: a byte for each).
const (
	minPair1 = 1 + 1 + 4*8 + 2 // attribute ordinal, stats
	minPair2 = 1 + 1 + 4 + 2
	minCell  = 3             // id, rows, pair count
	minValue = 1 + 1 + 2 + 2 // value, Count, First, Last
)

// Encode serializes the summary in its binary form. It never fails; the
// error is part of the signature every summary encoding has had.
//
// The bytes are computed once per summary and memoized, together with
// their SHA-256 (Digest), so a summary that is persisted, cached or shipped
// in many frames is encoded and hashed once. Every caller gets the same
// slice and must not modify it; and a summary must not be modified once it
// has been encoded (summaries are read-only once built). Encode is safe for
// concurrent use: racing first calls each compute the same bytes, and one
// of them is kept.
func (s *Summary) Encode() ([]byte, error) {
	return s.encoded().b, nil
}

// Digest is the SHA-256 of the summary's encoding, memoized with it: the
// name a cluster coordinator keeps a decoded part under, since equal
// digests mean equal encodings and so equal summaries.
func (s *Summary) Digest() [sha256.Size]byte {
	return s.encoded().sum
}

// encoding is a summary's memoized binary form and its SHA-256.
type encoding struct {
	b   []byte
	sum [sha256.Size]byte
}

func (s *Summary) encoded() *encoding {
	if e := s.enc.Load(); e != nil {
		return e
	}
	b := s.encode(binaryHeader, appendStats)
	e := &encoding{b: b, sum: sha256.Sum256(b)}
	if !s.enc.CompareAndSwap(nil, e) {
		return s.enc.Load()
	}
	return e
}

// EncodedLen is the length of the memoized encoding: 0 until Encode has
// run.
func (s *Summary) EncodedLen() int {
	if e := s.enc.Load(); e != nil {
		return len(e.b)
	}
	return 0
}

// statsWriter appends one stats entry of a version of the format; from is
// the summary's period start.
type statsWriter func(b []byte, st *stat, from stamp) []byte

// encode computes the binary form under header, its stats written by stats.
// Its dictionary holds the attributes the summary has entries for,
// renumbered in order: a restricted summary shares its parent's, and a
// decoded one holds what its encoding held.
func (s *Summary) encode(header []byte, stats statsWriter) []byte {
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
	size := 64 + 32*len(s.attrs) + 48*(len(s.num)+pairs) + 16*len(s.cells) + 48*len(s.vals)
	b := append(make([]byte, 0, size), header...)
	from := stampAt(s.Period.From)
	b = appendStamp(b, from)
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
		b = stats(binary.AppendUvarint(b, ords[s.num[i].attr]-1), &s.num[i].stat, from)
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
			b = stats(binary.AppendUvarint(b, ords[s.pairs[j].attr]-1), &s.pairs[j].stat, from)
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

// appendStats writes stats in version 2.
func appendStats(b []byte, st *stat, from stamp) []byte {
	b = binary.AppendUvarint(b, uint64(st.n))
	b = appendFloat(appendFloat(appendFloat(appendFloat(b, st.sum), st.sq), st.min), st.max)
	return binary.AppendUvarint(binary.AppendVarint(b, st.peak.sec-from.sec), uint64(st.peak.nsec))
}

// maxExact bounds the integers a float holds exactly: |v| < 2^53.
const maxExact = 1 << 53

// appendFloat writes f as version 2's tagged uvarint.
func appendFloat(b []byte, f float64) []byte {
	if v, ok := integral(f); ok {
		return binary.AppendUvarint(b, uint64(v<<1^v>>63)<<1)
	}
	return binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(f))
}

// integral reports f as an integer when the integer form encodes it: f is
// integral, |f| < 2^53 and f is not −0.
func integral(f float64) (int64, bool) {
	if !(f > -maxExact && f < maxExact) { // NaN fails both
		return 0, false
	}
	v := int64(f)
	return v, float64(v) == f && (v != 0 || !math.Signbit(f))
}

// Decode deserializes a summary in either version of the binary form, or in
// the gob encoding persisted summaries had before it.
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
// where no gob is expected — in either version, filling the summary's
// arrays straight from the bytes, and enforcing every rule of the format.
// Unlike gob's, its allocations are bounded by the length of data: every
// count is checked against the bytes left before anything is sized by it. A failure sticks
// (every read after it is a zero value), so the decoder checks for one once
// per section, before anything is sized by what it read.
func DecodeBinary(data []byte) (*Summary, error) {
	n := len(binaryHeader)
	if len(data) < n || !bytes.Equal(data[:n-1], binaryHeader[:n-1]) || data[n-1] < 1 || data[n-1] > binaryHeader[n-1] {
		return nil, errors.New("highlights: decode: not a binary summary (or an unknown version)")
	}
	d := decoder{b: data[n:], v1: data[n-1] == 1, minPair: minPair2}
	if d.v1 {
		d.minPair = minPair1
	}
	from, to := d.stamp(), d.stamp()
	d.from = from
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

	n = d.count(d.minPair)
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
	pairs := d.count(d.minPair)
	if d.err == nil && n*minCell+pairs*d.minPair > len(d.b) {
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
		k := d.count(d.minPair)
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
	b       []byte
	err     error
	v1      bool  // the encoding is version 1
	minPair int   // the version's smallest (attribute, stats) pair
	from    stamp // the period start version 2 peaks count from
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("highlights: decode: "+format, args...)
	}
}

// uvarint reads a uvarint; one byte, the most common length, inline.
func (d *decoder) uvarint() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 && d.err == nil {
		v := d.b[0]
		d.b = d.b[1:]
		return uint64(v)
	}
	return d.longUvarint()
}

func (d *decoder) longUvarint() uint64 {
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

// varint reads a varint; one byte inline, as uvarint does.
func (d *decoder) varint() int64 {
	if len(d.b) > 0 && d.b[0] < 0x80 && d.err == nil {
		v := d.b[0]
		d.b = d.b[1:]
		return int64(v>>1) ^ -int64(v&1)
	}
	return d.longVarint()
}

func (d *decoder) longVarint() int64 {
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
	if d.v1 || d.err != nil {
		return d.stats1(d.uvarint())
	}
	// Version 2 reads off a local slice: stats are most of a summary's
	// bytes, and this loop most of its decoding.
	b := d.b
	n, k := binary.Uvarint(b)
	if k <= 0 {
		d.fail("truncated or overlong varint")
		return stat{}
	}
	b = b[k:]
	var f [4]float64
	for i := range f {
		if f[i], k = readFloat(b); k == 0 {
			d.fail("bad float")
			return stat{}
		}
		b = b[k:]
	}
	sec, k := binary.Varint(b)
	if k <= 0 {
		d.fail("truncated or overlong varint")
		return stat{}
	}
	b = b[k:]
	nsec, k := binary.Uvarint(b)
	if k <= 0 || nsec >= 1e9 {
		d.fail("bad peak nanoseconds")
		return stat{}
	}
	d.b = b[k:]
	return stat{n: int64(n), sum: f[0], sq: f[1], min: f[2], max: f[3], peak: stamp{sec + d.from.sec, int64(nsec)}}
}

// readFloat reads version 2's tagged uvarint off the front of b, returning
// the value and the bytes it took — 0 unless b starts with the value's one
// encoding.
func readFloat(b []byte) (float64, int) {
	u, k := binary.Uvarint(b)
	switch {
	case k <= 0:
		return 0, 0
	case u&1 == 0:
		z := u >> 1
		v := int64(z>>1) ^ -int64(z&1)
		if v <= -maxExact || v >= maxExact {
			return 0, 0
		}
		return float64(v), k
	case u != 1 || len(b) < k+8:
		return 0, 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(b[k:]))
	if _, ok := integral(f); ok {
		return 0, 0
	}
	return f, k + 8
}

// stats1 reads the rest of a version 1 stats entry after its NonNull n.
func (d *decoder) stats1(n uint64) stat {
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
