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
	if !bytes.HasPrefix(data, binaryHeader) {
		return nil, errors.New("highlights: decode: not a binary summary (or an unknown version)")
	}
	d := decoder{b: data[len(binaryHeader):]}
	s := &Summary{}
	s.Period.From = d.time()
	s.Period.To = d.time()
	s.Rows = d.varint()

	refs := make([]AttrRef, d.count(2))
	for i := range refs {
		refs[i] = AttrRef{Table: d.string(), Attr: d.string()}
		if i > 0 && compareRefs(refs[i-1], refs[i]) >= 0 {
			d.fail("attributes out of order")
		}
		if d.err != nil {
			return nil, d.err
		}
	}

	n := d.count(minPair)
	s.Num = make(map[AttrRef]*Stats, n)
	num := make([]Stats, n)
	prev := -1
	for i := range num {
		ref := d.attr(refs, &prev)
		d.stats(&num[i])
		s.Num[ref] = &num[i]
	}
	if d.err != nil {
		return nil, d.err
	}

	n = d.count(2)
	s.Cat = make(map[AttrRef]map[string]*ValStat, n)
	prev = -1
	for i := 0; i < n; i++ {
		ref := d.attr(refs, &prev)
		vs := make([]ValStat, d.count(minValue))
		vals := make(map[string]*ValStat, len(vs))
		var last string
		for j := range vs {
			v := d.string()
			if j > 0 && v <= last {
				d.fail("values of %v out of order", ref)
			}
			last = v
			vs[j] = ValStat{Count: int64(d.uvarint()), First: d.time(), Last: d.time()}
			vals[v] = &vs[j]
		}
		if d.err != nil {
			return nil, d.err
		}
		s.Cat[ref] = vals
	}

	n = d.count(minCell)
	pairs := d.count(minPair)
	if d.err == nil && n*minCell+pairs*minPair > len(d.b) {
		d.fail("%d cells with %d attributes in %d bytes", n, pairs, len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	s.Cells = make(map[int64]*CellStats, n)
	cells := make([]CellStats, n)
	stats := make([]Stats, pairs)
	var id int64
	for i := range cells {
		if i == 0 {
			id = d.varint()
		} else if delta := d.uvarint(); delta == 0 || delta > uint64(math.MaxInt64)-uint64(id) {
			d.fail("cell ids out of order")
		} else {
			id = int64(uint64(id) + delta)
		}
		cs := &cells[i]
		cs.Rows = d.varint()
		k := d.count(minPair)
		if k > len(stats) {
			d.fail("cells hold more than %d attributes", pairs)
		}
		if d.err != nil {
			return nil, d.err
		}
		cs.Num = make(map[AttrRef]*Stats, k)
		prev = -1
		for j := 0; j < k; j++ {
			ref := d.attr(refs, &prev)
			d.stats(&stats[j])
			cs.Num[ref] = &stats[j]
		}
		stats = stats[k:]
		if d.err != nil {
			return nil, d.err
		}
		s.Cells[id] = cs
	}
	if len(stats) != 0 {
		d.fail("cells hold %d of %d attributes", pairs-len(stats), pairs)
	}
	if len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
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

func (d *decoder) string() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) time() time.Time {
	sec, nsec := d.varint(), d.uvarint()
	if nsec >= 1e9 {
		d.fail("%d nanoseconds", nsec)
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

func (d *decoder) stats(st *Stats) {
	n := d.uvarint()
	if d.err != nil {
		return
	}
	b := d.b
	if len(b) < 4*8 {
		d.fail("truncated stats")
		return
	}
	float := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
	d.b = b[4*8:]
	*st = Stats{NonNull: int64(n), Sum: float(0), SumSq: float(1), Min: float(2), Max: float(3), PeakTime: d.time()}
}

// attr reads an attribute ordinal, which must ascend past *prev.
func (d *decoder) attr(refs []AttrRef, prev *int) AttrRef {
	v := d.uvarint()
	if d.err != nil {
		return AttrRef{}
	}
	if v >= uint64(len(refs)) || int(v) <= *prev {
		d.fail("attribute %d out of order or past %d", v, len(refs))
		return AttrRef{}
	}
	*prev = int(v)
	return refs[v]
}
