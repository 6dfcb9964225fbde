package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"spate/internal/telco"
)

// Column stream codecs for the SPSG v3 columnar chunk layout. A column
// stream holds one attribute's escaped wire fields for every row of a
// chunk (escaping removes raw '|' and '\n', so fields are newline-safe).
// Three packings cover the entropy spectrum the paper's Figure 4 maps
// out: near-zero-entropy attributes dictionary+run-length encode, monotone
// integer attributes (timestamps, counters) delta encode, and high-entropy
// attributes stay as raw joined text. Packed streams are concatenated and
// the chunk's generic block codec compresses the concatenation once, so
// the codec keeps one shared context across all columns instead of
// restarting per stream.
const (
	// ColPlain is the generic fallback: the fields joined by '\n', left
	// for the chunk-level block codec.
	ColPlain byte = 0
	// ColDict is a dictionary + run-length encoding for low-cardinality
	// columns: uvarint entry count, length-prefixed entries, then
	// (uvarint entry index, uvarint run length) pairs covering the rows.
	ColDict byte = 1
	// ColDelta is a zigzag-varint delta encoding for columns whose every
	// field is a canonical base-10 integer (timestamps in wire form
	// qualify): the first value, then successive differences.
	ColDelta byte = 2
)

// maxDictEntries caps a dictionary — beyond it the column is not
// low-cardinality and plain encoding wins anyway.
const maxDictEntries = 1 << 12

// ColumnChoice reports which encoding was selected for a column, the
// statistics that drove the choice, and the column's integer zone — all the
// writer needs to know about a chunk's column, from one walk over it.
type ColumnChoice struct {
	Tag         byte
	EntropyBits float64
	Distinct    int
	// IntZone reports that every field is a canonical base-10 int64 (so the
	// column has no blank field and FormatInt(ParseInt(v)) == v throughout:
	// the exactness condition of delta encoding and of zone-map pruning);
	// Min and Max then bound the values.
	IntZone  bool
	Min, Max int64
}

// ColumnTagName names a column codec tag for metrics and EXPLAIN output.
func ColumnTagName(tag byte) string {
	switch tag {
	case ColPlain:
		return "plain"
	case ColDict:
		return "dict"
	case ColDelta:
		return "delta"
	}
	return "tag" + strconv.Itoa(int(tag))
}

// dictRowsPerEntry is the cardinality rule of dictionary selection: a
// column dictionary-encodes when its chunk holds at least this many rows per
// distinct value. The rule is relative to the chunk's row count on purpose —
// an absolute entropy threshold (H < 6 bits) is met by every column of a
// chunk under 64 rows, since H <= log2(rows), and dictionary-coding a
// near-unique column destroys the byte-level redundancy the block codec
// feeds on.
const dictRowsPerEntry = 8

// ChooseColumn picks the column encoding for one chunk's fields in a single
// walk that also yields the column's value-distribution entropy and integer
// zone: low-cardinality columns (distinct <= rows/8) take dictionary+RLE,
// other canonical-integer columns delta encode, and everything else stays
// on the generic codec. A low-cardinality integer column whose values do not
// come in runs — a handful of small counts in no order — takes delta instead
// when that is the smaller stream, see narrowDelta. Entropy is reported, not
// consulted; it is 0 when the column exceeded the dictionary cardinality cap.
func ChooseColumn(values []string) ColumnChoice {
	ch := ColumnChoice{Tag: ColPlain, IntZone: len(values) > 0, Min: math.MaxInt64, Max: math.MinInt64}
	index := make(map[string]int32, 64) // value → position in counts
	var counts []int32
	counting, last := true, int32(0) // last: the previous row's position in counts
	// The packed sizes the two encodings would come to: dictionary entries
	// with a length byte each and two bytes a run (entry index, run length),
	// against one varint a row.
	dictBytes, deltaBytes, prev := 1, 0, int64(0)
	for i, v := range values {
		switch {
		case !counting:
		case i > 0 && v == values[i-1]:
			counts[last]++ // a run costs no hashing
		default:
			at, seen := index[v]
			if !seen {
				if len(counts) == maxDictEntries {
					counting = false // not low-cardinality: plain wins anyway
					break
				}
				at = int32(len(counts))
				index[v] = at
				counts = append(counts, 0)
				dictBytes += len(v) + 1
			}
			counts[at]++
			last = at
			dictBytes += 2
		}
		if ch.IntZone {
			if x, ok := canonicalInt(v); ok {
				ch.Min, ch.Max = min(ch.Min, x), max(ch.Max, x)
				deltaBytes += varintLen(x - prev)
				prev = x
			} else {
				ch.IntZone = false
			}
		}
	}
	if !ch.IntZone {
		ch.Min, ch.Max = 0, 0
	}
	ch.Distinct = len(counts)
	if counting {
		ch.EntropyBits = entropyOf(counts, len(values))
	} else {
		ch.Distinct++ // the value that broke the cap
	}
	switch {
	case counting && ch.Distinct > 0 && ch.Distinct <= len(values)/dictRowsPerEntry:
		ch.Tag = ColDict
		if ch.IntZone && narrowDelta(deltaBytes, dictBytes, len(values)) {
			ch.Tag = ColDelta
		}
	case ch.IntZone:
		ch.Tag = ColDelta
	}
	return ch
}

// narrowDelta reports whether a low-cardinality integer column should delta
// encode after all: its delta stream is the smaller one and spends about one
// byte a row. Both streams then hand the block codec one symbol a row from a
// small alphabet, and the dictionary's adds a run-length byte to each — the
// case of a column like a per-cell failure count, four values in no order.
// Deltas that spill into a second byte are a different matter: they spread
// one value over two symbols and code worse than the dictionary index even
// where they pack smaller, so those columns stay dictionary-coded.
func narrowDelta(deltaBytes, dictBytes, rows int) bool {
	return deltaBytes < dictBytes && deltaBytes <= rows+rows/8+binary.MaxVarintLen64
}

// varintLen is the length of d's zigzag varint, as encodeDelta writes it.
func varintLen(d int64) int {
	return (bits.Len64(uint64(d<<1)^uint64(d>>63)|1) + 6) / 7
}

// entropyOf is the Shannon entropy in bits of a distribution given as
// occurrence counts summing to n.
func entropyOf(counts []int32, n int) float64 {
	h, fn := 0.0, float64(n)
	for _, c := range counts {
		p := float64(c) / fn
		h -= p * math.Log2(p)
	}
	if h < 0 { // -0 guard: a single-symbol distribution reports exactly 0
		h = 0
	}
	return h
}

// canonicalInt parses v as a canonical base-10 int64 — the form
// strconv.FormatInt renders, so no sign on non-negatives, no leading zeros,
// no "-0" — and reports whether it is one.
func canonicalInt(v string) (int64, bool) {
	d := v
	neg := len(v) > 0 && v[0] == '-'
	if neg {
		d = v[1:]
	}
	// 19 digits cannot overflow uint64, so the range check can wait.
	if len(d) == 0 || len(d) > 19 || (d[0] == '0' && (neg || len(d) > 1)) {
		return 0, false
	}
	var u uint64
	for i := 0; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			return 0, false
		}
		u = u*10 + uint64(c)
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

// EncodeColumn appends the packed form of the column's fields to dst.
// Packing is codec-free: the caller concatenates every column's packed
// stream and block-compresses the chunk once, so dict/RLE and delta only
// pre-shrink what the codec then squeezes with full cross-column context.
func EncodeColumn(dst []byte, tag byte, values []string) ([]byte, error) {
	switch tag {
	case ColPlain:
		return append(dst, strings.Join(values, "\n")...), nil
	case ColDict:
		return encodeDict(dst, values), nil
	case ColDelta:
		return encodeDelta(dst, values)
	}
	return nil, Corruptf("compress: column codec %d", tag)
}

// DecodeColumn appends the column's rows fields to dst, inverting
// EncodeColumn over an already-inflated packed stream. It fails loudly on
// truncated or corrupt streams and on streams that do not hold exactly
// rows values.
func DecodeColumn(dst []string, tag byte, data []byte, rows int) ([]string, error) {
	switch tag {
	case ColPlain:
		if err := checkPlain(data, rows); err != nil {
			return nil, err
		}
		if rows == 0 {
			return dst, nil
		}
		return append(dst, strings.Split(string(data), "\n")...), nil
	case ColDict:
		entries, runs, err := dictEntries(data)
		if err != nil {
			return nil, err
		}
		for at := 0; at < rows; {
			idx, run, k := dictRun(runs, len(entries), rows-at)
			if k == 0 {
				return nil, errDictRun(at)
			}
			runs = runs[k:]
			for j := 0; j < run; j++ {
				dst = append(dst, entries[idx])
			}
			at += run
		}
		if err := dictTail(runs); err != nil {
			return nil, err
		}
		return dst, nil
	case ColDelta:
		xs := make([]int64, min(rows, len(data)+1)) // as in deltaScratch
		if _, err := deltaDecode(xs, data); err != nil {
			return nil, err
		}
		for _, x := range xs {
			dst = append(dst, strconv.FormatInt(x, 10))
		}
		return dst, nil
	}
	return nil, Corruptf("compress: column codec %d", tag)
}

// DecodeColumnBatch decodes a packed column stream into col, a batch column
// already Reset to the stream's kind and row count: row i equals
// telco.ParseField(kind, field i) over the fields DecodeColumn yields —
// blank fields are null, escapes resolve, plain streams keep non-canonical
// integers — without ever building those strings. Each (codec, kind) pair
// decodes in a loop of its own, straight into the column's typed array:
// plain digits parse in place, a dictionary entry parses once, where its
// first run starts, and its runs copy the value (the run boundaries stay
// with the column, col.Runs), and deltas accumulate as int64 and convert
// arithmetically. A string column aliases data — plain fields and dictionary
// entries are located, not copied, and a dictionary stream keeps its
// dictionary with one code per row — so data must stay untouched while the
// column is in use. With countWire set, wire is the wire-text share of the
// column, each field with one separator (0 without): it costs a delta stream
// a decimal-length pass over its integers, so a caller asks for it only when
// it reports it. Corrupt streams fail exactly as DecodeColumn's do.
func DecodeColumnBatch(col *telco.Column, tag byte, data []byte, rows int, countWire bool) (wire int64, err error) {
	switch tag {
	case ColPlain:
		return decodePlain(col, data, rows, countWire)
	case ColDict:
		return decodeDict(col, data, rows, countWire)
	case ColDelta:
		return decodeDelta(col, data, rows, countWire)
	}
	return 0, Corruptf("compress: column codec %d", tag)
}

// decodePlain is DecodeColumnBatch over a plain stream: a string column
// locates its fields, an integer one parses plain digits in place, and any
// other field — a sign, an escape, a float, a timestamp — takes SetField.
func decodePlain(col *telco.Column, data []byte, rows int, countWire bool) (int64, error) {
	if err := checkPlain(data, rows); err != nil {
		return 0, err
	}
	if rows == 0 {
		return 0, nil
	}
	switch col.Kind {
	case telco.KindString:
		col.Arena = data
		col.SetEntries(rows)
		at := 0
		for i := 0; i < rows; i++ {
			end := fieldEnd(data, at)
			col.Starts[i], col.Ends[i] = uint32(at), uint32(end)
			at = end + 1
		}
		col.Unescape()
	case telco.KindInt:
		ints, at := col.Ints, 0
		for i := range ints {
			// Up to 18 digits and the field's end: no overflow to check.
			j, x := at, int64(0)
			for j < len(data) && j-at < 18 && data[j]-'0' <= 9 {
				x = x*10 + int64(data[j]-'0')
				j++
			}
			if j > at && (j == len(data) || data[j] == '\n') {
				ints[i], at = x, j+1
				continue
			}
			end := fieldEnd(data, j)
			if err := col.SetField(i, data[at:end]); err != nil {
				return 0, err
			}
			at = end + 1
		}
	default:
		at := 0
		for i := 0; i < rows; i++ {
			end := fieldEnd(data, at)
			if err := col.SetField(i, data[at:end]); err != nil {
				return 0, err
			}
			at = end + 1
		}
	}
	if !countWire {
		return 0, nil
	}
	return int64(len(data)) + 1, nil
}

// fieldEnd is the end of the plain-stream field that runs through at: its
// newline, or the end of the stream.
func fieldEnd(data []byte, at int) int {
	if nl := bytes.IndexByte(data[at:], '\n'); nl >= 0 {
		return at + nl
	}
	return len(data)
}

// decodeDict is DecodeColumnBatch over a dictionary stream. A string column
// keeps the entries' spans in data as its dictionary and writes one code a
// row; a numeric one parses through them (dictNumbers).
func decodeDict(col *telco.Column, data []byte, rows int, countWire bool) (wire int64, err error) {
	var runs []byte
	if col.Starts, col.Ends, runs, err = dictSpans(data, col.Starts[:0], col.Ends[:0]); err != nil {
		return 0, err
	}
	col.Arena = data
	switch col.Kind {
	case telco.KindString:
		codes, rest := col.UseCodes(rows), runs
		for at := 0; at < rows; {
			idx, run, k := dictRun(rest, len(col.Starts), rows-at)
			if k == 0 {
				return 0, errDictRun(at)
			}
			rest = rest[k:]
			end, code := at+run, uint32(idx)
			col.Runs = append(col.Runs, uint32(end))
			for j := at; j < end; j++ {
				codes[j] = code
			}
			at = end
		}
		err = dictTail(rest)
	case telco.KindFloat:
		err = dictNumbers(col, col.Floats, runs, rows)
	default: // KindInt and KindTime fill Ints; KindNull has no array to fill
		err = dictNumbers(col, col.Ints, runs, rows)
	}
	if err != nil {
		return 0, err
	}
	if countWire {
		wire = dictWire(runs, col.Starts, col.Ends, rows)
	}
	if col.Kind == telco.KindString {
		col.Unescape()
	} else {
		col.Arena, col.Starts, col.Ends = nil, col.Starts[:0], col.Ends[:0]
	}
	return wire, nil
}

// dictNumbers walks a dictionary stream's runs into vals, a numeric column's
// array. An entry parses where its first run starts, and every later row of
// its runs copies that row's value, nullness included. An entry that does
// not parse only fails the decode if a run uses it, as it would field by
// field; a malformed run fails it first.
func dictNumbers[T int64 | float64](col *telco.Column, vals []T, runs []byte, rows int) error {
	first := col.Work(len(col.Starts)) // the row an entry was parsed into, -1 before
	for e := range first {
		first[e] = -1
	}
	var bad error
	for at := 0; at < rows; {
		idx, run, k := dictRun(runs, len(first), rows-at)
		if k == 0 {
			return errDictRun(at)
		}
		runs = runs[k:]
		end := at + run
		col.Runs = append(col.Runs, uint32(end))
		from, src := at, int(first[idx])
		if src < 0 && bad == nil {
			if bad = col.SetField(at, col.Entry(idx)); bad == nil {
				first[idx], src, from = int32(at), at, at+1
			}
		}
		switch {
		case src < 0: // the decode fails anyway
		case col.Null(src):
			col.SetNulls(from, end)
		default:
			x := vals[src]
			for j := from; j < end; j++ {
				vals[j] = x
			}
		}
		at = end
	}
	if err := dictTail(runs); err != nil {
		return err
	}
	return bad
}

// decodeDelta is DecodeColumnBatch over a delta stream: integers and floats
// accumulate straight into their array, times convert in place from the
// fourteen wire digits, and a string column renders each integer's digits
// into its own arena.
func decodeDelta(col *telco.Column, data []byte, rows int, countWire bool) (wire int64, err error) {
	var xs []int64 // the decoded integers, for the wire count and the kinds that convert them
	switch col.Kind {
	case telco.KindInt, telco.KindTime:
		var n int
		n, err = deltaDecode(col.Ints, data)
		xs = col.Ints[:n]
	case telco.KindFloat:
		if !countWire {
			_, err = deltaDecode(col.Floats, data)
			break
		}
		if xs, err = deltaScratch(col, data, rows); err == nil {
			for i, x := range xs {
				col.Floats[i] = float64(x)
			}
		}
	case telco.KindString:
		// Numeric identifiers stored as text: each integer's digits render
		// into the column's own arena as the walk reaches it.
		digits, prev, at := col.Own(), int64(0), 0
		col.SetEntries(rows)
		for i := 0; i < rows; i++ {
			d, next := varintAt(data, at)
			if next == 0 {
				return 0, errDeltaRow(i)
			}
			prev, at = prev+d, next
			col.Starts[i] = uint32(len(digits))
			digits = strconv.AppendInt(digits, prev, 10)
			col.Ends[i] = uint32(len(digits))
		}
		if err := deltaTail(data, at); err != nil {
			return 0, err
		}
		col.OwnArena(digits)
		if countWire {
			wire = int64(len(digits) + rows)
		}
		return wire, nil
	default:
		xs, err = deltaScratch(col, data, rows)
	}
	if countWire && err == nil {
		wire = int64(rows)
		for _, x := range xs {
			wire += int64(decimalLen(x))
		}
	}
	switch col.Kind {
	case telco.KindTime:
		// Rows before a truncation convert first: a time the digits do not
		// name fails the decode ahead of the corruption after it, as a
		// row-by-row walk would.
		if terr := col.IntsToTimes(len(xs)); terr != nil {
			return 0, terr
		}
	case telco.KindNull:
		if err == nil { // the digits are never blank: every row parses to null
			col.SetNulls(0, rows)
		}
	}
	if err != nil {
		return 0, err
	}
	return wire, nil
}

// checkPlain verifies a plain stream holds exactly rows newline-joined
// fields.
func checkPlain(data []byte, rows int) error {
	if rows == 0 {
		if len(data) != 0 {
			return Corruptf("compress: plain column: data for zero rows")
		}
		return nil
	}
	if n := bytes.Count(data, []byte{'\n'}) + 1; n != rows {
		return Corruptf("compress: plain column: %d values, want %d", n, rows)
	}
	return nil
}

// decimalLen is len(strconv.FormatInt(x, 10)), without a branch on the
// value: a wire-bytes count runs it over random counters.
func decimalLen(x int64) int {
	sign := x >> 63 // 0, or -1 for a negative x
	u := uint64((x ^ sign) - sign)
	// 1233/4096 approximates log10(2): t is the digit count or one short,
	// and pow10[t]-1-u wraps past 1<<63 exactly when it is short (u is at
	// most 1<<63, and below pow10[19]).
	t := bits.Len64(u) * 1233 >> 12
	t += int((pow10[t] - 1 - u) >> 63)
	return int(-sign) + max(t, 1)
}

var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

func encodeDict(dst []byte, values []string) []byte {
	idx := make(map[string]uint64, 64)
	var entries []string
	for _, v := range values {
		if _, ok := idx[v]; !ok {
			idx[v] = uint64(len(entries))
			entries = append(entries, v)
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(u uint64) {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], u)]...)
	}
	put(uint64(len(entries)))
	for _, e := range entries {
		put(uint64(len(e)))
		dst = append(dst, e...)
	}
	for i := 0; i < len(values); {
		j := i + 1
		for j < len(values) && values[j] == values[i] {
			j++
		}
		put(idx[values[i]])
		put(uint64(j - i))
		i = j
	}
	return dst
}

// dictSpans parses a dictionary stream's header: it appends each entry's
// start and end offset in data to starts and ends and returns them with the
// run section that follows the entries.
func dictSpans(data []byte, starts, ends []uint32) ([]uint32, []uint32, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) {
		return nil, nil, nil, Corruptf("compress: dict column: entry count")
	}
	at := k
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(data[at:])
		if k <= 0 || l > uint64(len(data)-at-k) {
			return nil, nil, nil, Corruptf("compress: dict column: entry %d", i)
		}
		starts, ends = append(starts, uint32(at+k)), append(ends, uint32(at+k)+uint32(l))
		at += k + int(l)
	}
	return starts, ends, data[at:], nil
}

// dictEntries parses a dictionary stream's header, returning the entries
// and the run section that follows them. The entries are substrings of one
// copy of the header, not a string each.
func dictEntries(data []byte) (entries []string, runs []byte, err error) {
	starts, ends, runs, err := dictSpans(data, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	header := string(data[:len(data)-len(runs)])
	entries = make([]string, len(starts))
	for i := range entries {
		entries[i] = header[starts[i]:ends[i]]
	}
	return entries, runs, nil
}

// dictRun reads the (entry index, run length) pair at the head of runs, for
// a dictionary of n entries with left rows still to cover, returning it with
// its length in bytes — 0 when the pair is malformed: an index past the
// dictionary, an empty run or one longer than the rows left. The common pair
// is two one-byte varints.
func dictRun(runs []byte, n, left int) (idx, run, k int) {
	if len(runs) < 2 || runs[0]|runs[1] >= 0x80 {
		return dictRunLong(runs, n, left)
	}
	idx, run = int(runs[0]), int(runs[1])
	if idx >= n || run == 0 || run > left {
		return 0, 0, 0
	}
	return idx, run, 2
}

// dictRunLong is dictRun for pairs with a multi-byte varint.
func dictRunLong(runs []byte, n, left int) (idx, run, k int) {
	i, ki := binary.Uvarint(runs)
	if ki <= 0 || i >= uint64(n) {
		return 0, 0, 0
	}
	r, kr := binary.Uvarint(runs[ki:])
	if kr <= 0 || r == 0 || r > uint64(left) {
		return 0, 0, 0
	}
	return int(i), int(r), ki + kr
}

func errDictRun(at int) error {
	return Corruptf("compress: dict column: bad run at row %d", at)
}

// dictTail checks that the runs covering a column's rows end the stream.
func dictTail(runs []byte) error {
	if len(runs) != 0 {
		return Corruptf("compress: dict column: %d trailing bytes", len(runs))
	}
	return nil
}

// dictWire is the wire-text share of a dictionary stream whose runs cover
// rows rows and have decoded cleanly, from its entries' escaped spans.
func dictWire(runs []byte, starts, ends []uint32, rows int) (wire int64) {
	for at := 0; at < rows; {
		idx, run, k := dictRun(runs, len(starts), rows-at)
		runs = runs[k:]
		wire += int64(run) * int64(ends[idx]-starts[idx]+1)
		at += run
	}
	return wire
}

func encodeDelta(dst []byte, values []string) ([]byte, error) {
	var tmp [binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, v := range values {
		x, ok := canonicalInt(v)
		if !ok {
			return nil, Corruptf("compress: delta column: %q is not a canonical integer", v)
		}
		dst = append(dst, tmp[:binary.PutVarint(tmp[:], x-prev)]...)
		prev = x
	}
	return dst, nil
}

// deltaDecode reconstructs a delta stream's first len(dst) integers into
// dst — a float one rounds each to the nearest float64, as parsing its
// digits would — and checks that they end the stream. It returns how many
// it decoded: all of them, or the row a truncated varint stopped it at.
func deltaDecode[T int64 | float64](dst []T, data []byte) (int, error) {
	prev, at := int64(0), 0
	for i := range dst {
		var u uint64
		if at < len(data) && data[at] < 0x80 {
			u = uint64(data[at])
			at++
		} else {
			// varintAt, inline on the hot path: up to nine continuation
			// bytes, and a tenth byte of 0 or 1.
			j, s := at, uint(0)
			for ; j < len(data) && j-at < 9 && data[j] >= 0x80; j++ {
				u |= uint64(data[j]&0x7f) << s
				s += 7
			}
			if j == len(data) || data[j] >= 0x80 || j-at == 9 && data[j] > 1 {
				return i, errDeltaRow(i)
			}
			u |= uint64(data[j]) << s
			at = j + 1
		}
		prev += int64(u>>1) ^ -int64(u&1) // zigzag, as binary.Varint reads it
		dst[i] = T(prev)
	}
	return len(dst), deltaTail(data, at)
}

// varintAt reads the zigzag varint at data[at:] as binary.Varint does,
// returning it with the offset after it — 0 when it is truncated or
// overflows. It serves the walk that renders text identifiers, where
// formatting the digits outweighs the call; deltaDecode reads inline.
func varintAt(data []byte, at int) (int64, int) {
	if at < len(data) && data[at] < 0x80 {
		u := int64(data[at])
		return u>>1 ^ -(u & 1), at + 1
	}
	return varintLong(data, at)
}

// varintLong is varintAt past one byte.
func varintLong(data []byte, at int) (int64, int) {
	u, k := binary.Uvarint(data[min(at, len(data)):])
	if k <= 0 {
		return 0, 0
	}
	return int64(u>>1) ^ -int64(u&1), at + k
}

func errDeltaRow(i int) error {
	return Corruptf("compress: delta column: truncated at row %d", i)
}

// deltaTail checks that a delta stream's rows end at at, its length.
func deltaTail(data []byte, at int) error {
	if at != len(data) {
		return Corruptf("compress: delta column: %d trailing bytes", len(data)-at)
	}
	return nil
}

// deltaScratch decodes a delta stream for a column without an integer array
// of its own — a float or null one — into its Ints capacity, which those
// kinds leave unused.
func deltaScratch(col *telco.Column, data []byte, rows int) ([]int64, error) {
	n := min(rows, len(data)+1) // a row takes a byte at least: a stream this short fails sooner
	xs := slices.Grow(col.Ints[:0], n)[:n]
	col.Ints = xs[:0]
	_, err := deltaDecode(xs, data)
	return xs, err
}
