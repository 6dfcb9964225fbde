package compress

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"

	"spate/internal/entropy"
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
// the codec keeps one shared context (and its trained dictionary) across
// all columns instead of restarting per stream.
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

// ColumnChoice reports which encoding was selected for a column and the
// entropy statistics that drove the choice, for observability.
type ColumnChoice struct {
	Tag         byte
	EntropyBits float64
	Distinct    int
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

// ChooseColumn picks the column encoding for one chunk's fields: Shannon
// entropy of the empirical value distribution selects dictionary+RLE for
// low-cardinality columns, canonical-integer columns delta encode, and
// everything else stays on the generic codec.
func ChooseColumn(values []string) ColumnChoice {
	distinct := make(map[string]int, 64)
	for _, v := range values {
		distinct[v]++
		if len(distinct) > maxDictEntries {
			break
		}
	}
	ch := ColumnChoice{Tag: ColPlain, Distinct: len(distinct)}
	if len(distinct) <= maxDictEntries {
		ch.EntropyBits = entropy.OfStrings(values)
	}
	switch {
	case len(distinct) <= maxDictEntries && ch.EntropyBits < 6:
		ch.Tag = ColDict
	case canDelta(values):
		ch.Tag = ColDelta
	}
	return ch
}

// canDelta reports whether every field is a canonical base-10 int64 —
// the exactness condition for delta encoding: FormatInt(ParseInt(v)) == v
// guarantees bit-for-bit reconstruction.
func canDelta(values []string) bool {
	if len(values) == 0 {
		return false
	}
	for _, v := range values {
		i, err := strconv.ParseInt(v, 10, 64)
		if err != nil || strconv.FormatInt(i, 10) != v {
			return false
		}
	}
	return true
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

// DecodeColumnValues decodes a packed column stream straight into typed
// values: row i lands in dst[i*stride] (so a caller lays several columns
// out row-major in one slice) and equals telco.ParseField(kind, field i)
// over the fields DecodeColumn yields — blank fields are Null, escapes
// resolve, plain streams keep non-canonical integers — without ever
// building those strings for packed streams: a dictionary entry parses
// once and its runs copy the value, deltas accumulate as int64 and convert
// arithmetically. wire is the wire-text share of the column, each field
// with one separator. Corrupt streams fail exactly as DecodeColumn's do.
func DecodeColumnValues(dst []telco.Value, stride int, kind telco.Kind, tag byte, data []byte, rows int) (wire int64, err error) {
	switch tag {
	case ColPlain:
		if err := checkPlain(data, rows); err != nil {
			return 0, err
		}
		if rows == 0 {
			return 0, nil
		}
		rest := string(data) // one copy; string values are substrings of it
		for i := 0; i < rows; i++ {
			field := rest
			if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
				field, rest = rest[:nl], rest[nl+1:]
			}
			if dst[i*stride], err = telco.ParseField(kind, field); err != nil {
				return 0, err
			}
		}
		return int64(len(data)) + 1, nil
	case ColDict:
		entries, runs, err := dictEntries(data)
		if err != nil {
			return 0, err
		}
		// Entries parse once; a bad entry only fails the decode if a run
		// uses it, as it would field by field.
		vals := make([]telco.Value, len(entries))
		var bad []error
		for i, e := range entries {
			if vals[i], err = telco.ParseField(kind, e); err != nil {
				if bad == nil {
					bad = make([]error, len(entries))
				}
				bad[i] = err
			}
		}
		var badRun error
		err = dictRuns(runs, len(entries), rows, func(idx, at, run int) {
			if bad != nil && bad[idx] != nil && badRun == nil {
				badRun = bad[idx]
			}
			v := vals[idx]
			for j := at; j < at+run; j++ {
				dst[j*stride] = v
			}
			wire += int64(run) * int64(len(entries[idx])+1)
		})
		if err == nil {
			err = badRun
		}
		if err != nil {
			return 0, err
		}
		return wire, nil
	case ColDelta:
		if kind == telco.KindString {
			// Numeric identifiers stored as text: render every row's digits
			// into one buffer and hand out substrings of its one string.
			digits := make([]byte, 0, 2*len(data)+rows)
			ends := make([]int, rows)
			err := deltaValues(data, rows, func(i int, x int64) error {
				digits = strconv.AppendInt(digits, x, 10)
				ends[i] = len(digits)
				return nil
			})
			if err != nil {
				return 0, err
			}
			all, start := string(digits), 0
			for i, end := range ends {
				dst[i*stride] = telco.String(all[start:end])
				start = end
			}
			return int64(len(digits) + rows), nil
		}
		err := deltaValues(data, rows, func(i int, x int64) error {
			v, err := telco.ValueOfInt(kind, x)
			dst[i*stride] = v
			wire += int64(decimalLen(x)) + 1
			return err
		})
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
	n := 1
	u := uint64(x)
	if x < 0 {
		n, u = 2, -u
	}
	for u >= 10 {
		u /= 10
		n++
	}
	return n
}

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

// dictEntries parses a dictionary stream's header, returning the entries
// and the run section that follows them. The entries are substrings of one
// copy of the header, not a string each.
func dictEntries(data []byte) (entries []string, runs []byte, err error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) {
		return nil, nil, Corruptf("compress: dict column: entry count")
	}
	ends := make([]int, n) // end offset of each entry within data
	at := k
	for i := range ends {
		l, k := binary.Uvarint(data[at:])
		if k <= 0 || l > uint64(len(data)-at-k) {
			return nil, nil, Corruptf("compress: dict column: entry %d", i)
		}
		at += k + int(l)
		ends[i] = at
	}
	header := string(data[:at])
	entries = make([]string, n)
	at = k
	for i, end := range ends {
		_, k := binary.Uvarint(data[at:])
		entries[i] = header[at+k : end]
		at = end
	}
	return entries, data[at:], nil
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
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, Corruptf("compress: delta column: non-integer %q", v)
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
