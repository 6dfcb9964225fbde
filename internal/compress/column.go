package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
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
		err = dictRuns(runs, len(entries), rows, func(idx, _, run int) {
			for j := 0; j < run; j++ {
				dst = append(dst, entries[idx])
			}
		})
		if err != nil {
			return nil, err
		}
		return dst, nil
	case ColDelta:
		err := deltaValues(data, rows, func(_ int, x int64) error {
			dst = append(dst, strconv.FormatInt(x, 10))
			return nil
		})
		if err != nil {
			return nil, err
		}
		return dst, nil
	}
	return nil, Corruptf("compress: column codec %d", tag)
}

// DecodeColumnBatch decodes a packed column stream into col, a batch column
// already Reset to the stream's kind and row count: row i equals
// telco.ParseField(kind, field i) over the fields DecodeColumn yields —
// blank fields are null, escapes resolve, plain streams keep non-canonical
// integers — without ever building those strings. Numbers land in the
// column's typed array: a dictionary entry parses once, where its first run
// starts, and its runs copy the value (the run boundaries stay with the
// column, col.Runs); deltas accumulate as int64 and convert arithmetically.
// A string column aliases data — plain fields and dictionary entries are
// located, not copied, and a dictionary stream keeps its dictionary with one
// code per row — so data must stay untouched while the column is in use. wire is the wire-text share of the column, each
// field with one separator. Corrupt streams fail exactly as DecodeColumn's
// do.
func DecodeColumnBatch(col *telco.Column, tag byte, data []byte, rows int) (wire int64, err error) {
	str := col.Kind == telco.KindString
	switch tag {
	case ColPlain:
		if err := checkPlain(data, rows); err != nil {
			return 0, err
		}
		if rows == 0 {
			return 0, nil
		}
		if str {
			col.Arena = data
			col.SetEntries(rows)
		}
		at := 0
		for i := 0; i < rows; i++ {
			end := len(data)
			if nl := bytes.IndexByte(data[at:], '\n'); nl >= 0 {
				end = at + nl
			}
			if str {
				col.Starts[i], col.Ends[i] = uint32(at), uint32(end)
			} else if err := col.SetField(i, data[at:end]); err != nil {
				return 0, err
			}
			at = end + 1
		}
		if str {
			col.Unescape()
		}
		return int64(len(data)) + 1, nil
	case ColDict:
		// A string column keeps the entries' spans in data as its dictionary;
		// a numeric one parses through them.
		var runs []byte
		if col.Starts, col.Ends, runs, err = dictSpans(data, col.Starts[:0], col.Ends[:0]); err != nil {
			return 0, err
		}
		col.Arena = data
		n := len(col.Starts)
		var first []int32 // numeric: the row an entry was parsed into, -1 before
		if str {
			col.UseCodes(rows)
		} else {
			first = col.Work(n)
			for i := range first {
				first[i] = -1
			}
		}
		// An entry that does not parse only fails the decode if a run uses
		// it, as it would field by field.
		var bad error
		err = dictRuns(runs, n, rows, func(idx, at, run int) {
			wire += int64(run) * int64(col.Ends[idx]-col.Starts[idx]+1)
			col.Runs = append(col.Runs, uint32(at+run))
			switch {
			case str:
				for j := at; j < at+run; j++ {
					col.Codes[j] = uint32(idx)
				}
			case bad != nil:
			case first[idx] < 0:
				if bad = col.SetField(at, data[col.Starts[idx]:col.Ends[idx]]); bad == nil {
					first[idx] = int32(at)
					col.Fill(at+1, at+run, at)
				}
			default:
				col.Fill(at, at+run, int(first[idx]))
			}
		})
		if err == nil {
			err = bad
		}
		if err != nil {
			return 0, err
		}
		if str {
			col.Unescape()
		} else {
			col.Arena, col.Starts, col.Ends = nil, col.Starts[:0], col.Ends[:0]
		}
		return wire, nil
	case ColDelta:
		if str {
			// Numeric identifiers stored as text: every row's digits render
			// into the column's own arena.
			digits := col.Own()
			col.SetEntries(rows)
			err := deltaValues(data, rows, func(i int, x int64) error {
				col.Starts[i] = uint32(len(digits))
				digits = strconv.AppendInt(digits, x, 10)
				col.Ends[i] = uint32(len(digits))
				return nil
			})
			if err != nil {
				return 0, err
			}
			col.OwnArena(digits)
			return int64(len(digits) + rows), nil
		}
		if col.Kind == telco.KindInt {
			// The common case lands in the array with no call per row.
			err = deltaValues(data, rows, func(i int, x int64) error {
				wire += int64(decimalLen(x)) + 1
				col.Ints[i] = x
				return nil
			})
		} else {
			err = deltaValues(data, rows, func(i int, x int64) error {
				wire += int64(decimalLen(x)) + 1
				return col.SetInt(i, x)
			})
		}
		if err != nil {
			return 0, err
		}
		return wire, nil
	}
	return 0, Corruptf("compress: column codec %d", tag)
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

// decimalLen is len(strconv.FormatInt(x, 10)).
func decimalLen(x int64) int {
	n, u := 0, uint64(x)
	if x < 0 {
		n, u = 1, -u
	}
	// 1233/4096 approximates log10(2): t is the digit count or one short.
	t := bits.Len64(u) * 1233 >> 12
	if u >= pow10[t] {
		t++
	}
	return n + max(t, 1)
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

// dictRuns walks a dictionary stream's (entry index, run length) pairs,
// calling fn with each run's entry, first row and length. The runs must
// cover exactly rows rows over n entries.
func dictRuns(runs []byte, n, rows int, fn func(idx, at, run int)) error {
	got := 0
	for got < rows {
		idx, k := binary.Uvarint(runs)
		if k <= 0 || idx >= uint64(n) {
			return Corruptf("compress: dict column: run index")
		}
		runs = runs[k:]
		run, k := binary.Uvarint(runs)
		if k <= 0 || run == 0 || run > uint64(rows-got) {
			return Corruptf("compress: dict column: run length")
		}
		runs = runs[k:]
		fn(int(idx), got, int(run))
		got += int(run)
	}
	if len(runs) != 0 {
		return Corruptf("compress: dict column: %d trailing bytes", len(runs))
	}
	return nil
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

// deltaValues walks a delta stream, calling fn with each of its rows
// reconstructed integers; fn's first error stops the walk.
func deltaValues(data []byte, rows int, fn func(i int, x int64) error) error {
	prev := int64(0)
	for i := 0; i < rows; i++ {
		d, k := binary.Varint(data)
		if k <= 0 {
			return Corruptf("compress: delta column: truncated at row %d", i)
		}
		data = data[k:]
		prev += d
		if err := fn(i, prev); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return Corruptf("compress: delta column: %d trailing bytes", len(data))
	}
	return nil
}
