package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestTypedDecodeProperty: over seeded random columns of every flavour a
// leaf can hold — blanks, escaped delimiters, negative and non-canonical
// integers, valid and impossible timestamps, floats — encoded with every
// codec that accepts them, the batch decoder equals ParseField over the
// string decoder in every kind, and fails exactly where it would.
func TestTypedDecodeProperty(t *testing.T) {
	flavours := map[string]func(r *rand.Rand) string{
		"canonical-int": func(r *rand.Rand) string { return strconv.FormatInt(r.Int63n(2000)-1000, 10) },
		"big-int":       func(r *rand.Rand) string { return strconv.FormatInt(r.Int63()-r.Int63(), 10) },
		"loose-int": func(r *rand.Rand) string {
			return []string{"+5", "007", "-0", "42", "", "-17", "0000"}[r.Intn(7)]
		},
		"time": func(r *rand.Rand) string {
			// Mostly valid wire timestamps, some with a field out of range.
			y, mo, d := 1990+r.Intn(60), 1+r.Intn(12), 1+r.Intn(31)
			h, mi, s := r.Intn(25), r.Intn(61), r.Intn(61)
			if r.Intn(4) > 0 {
				d, h, mi, s = 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60)
			}
			return strconv.Itoa(y) + two(mo) + two(d) + two(h) + two(mi) + two(s)
		},
		"short-time": func(r *rand.Rand) string { return []string{"2016", "201601181530", "", "20160118093000"}[r.Intn(4)] },
		"float":      func(r *rand.Rand) string { return strconv.FormatFloat(r.NormFloat64()*1e3, 'g', -1, 64) },
		"escaped": func(r *rand.Rand) string {
			return []string{`a\pb`, `back\\slash`, `line\nbreak`, "", "plain", `\p\p`, `trailing\`}[r.Intn(7)]
		},
		"category": func(r *rand.Rand) string { return []string{"VOICE", "DATA", "SMS", ""}[r.Intn(4)] },
		"blank":    func(r *rand.Rand) string { return "" },
	}
	rng := rand.New(rand.NewSource(20260926))
	for name, gen := range flavours {
		for trial := 0; trial < 25; trial++ {
			rows := rng.Intn(200)
			vals := make([]string, rows)
			for i := range vals {
				vals[i] = gen(rng)
				if i > 0 && rng.Intn(3) == 0 {
					vals[i] = vals[i-1] // runs, so dict streams carry real run lengths
				}
			}
			for _, tag := range []byte{ColPlain, ColDict, ColDelta} {
				if tag == ColDelta && !ChooseColumn(vals).IntZone {
					continue
				}
				enc, err := EncodeColumn(nil, tag, vals)
				if err != nil {
					t.Fatalf("%s: encode tag %d: %v", name, tag, err)
				}
				checkTypedDecode(t, tag, enc, rows)
				// A stream cut short or asked for the wrong row count must
				// fail both decoders alike.
				if len(enc) > 0 {
					checkTypedDecode(t, tag, enc[:len(enc)-1], rows)
				}
				checkTypedDecode(t, tag, enc, rows+1)
			}
		}
	}
}

// TestDecodeEdgeCases pins the batch decoder's loops on the streams their
// fast paths could get wrong, each through checkTypedDecode in every kind,
// whole and cut short by a byte.
func TestDecodeEdgeCases(t *testing.T) {
	uv := func(b []byte, u uint64) []byte { return binary.AppendUvarint(b, u) }
	// dict packs entries and (index, run) pairs by hand, so a stream may
	// hold entries no run uses.
	dict := func(entries []string, runs ...uint64) []byte {
		b := uv(nil, uint64(len(entries)))
		for _, e := range entries {
			b = append(uv(b, uint64(len(e))), e...)
		}
		for _, r := range runs {
			b = uv(b, r)
		}
		return b
	}
	many := make([]string, 300) // a dictionary past one-byte indexes
	for i := range many {
		many[i] = strconv.Itoa(i * 7)
	}
	long := make([]string, 0, 700) // runs past one-byte lengths
	for _, v := range []string{"3", "", "3"} {
		for i := 0; i < 200+len(long)/2; i++ {
			long = append(long, v)
		}
	}
	cases := []struct {
		name string
		tag  byte
		vals []string // encoded with tag, unless data is set
		data []byte
		rows int
	}{
		{name: "ten-byte delta last", tag: ColDelta, vals: []string{"0", "1", "9223372036854775807"}},
		{name: "ten-byte delta first", tag: ColDelta, vals: []string{"-9223372036854775808", "-9223372036854775807"}},
		{name: "running sum past both edges", tag: ColDelta, vals: []string{"9223372036854775807", "-9223372036854775808",
			"0", "-9223372036854775808", "9223372036854775807", "-1", "1"}},
		{name: "two- and three-byte deltas", tag: ColDelta, vals: []string{"64", "0", "8192", "-8193", "1048576", "-1"}},
		{name: "overlong varint", tag: ColDelta, data: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, rows: 1},
		{name: "eleven-byte varint", tag: ColDelta, data: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, rows: 1},
		{name: "ten-byte varint of one", tag: ColDelta, data: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, rows: 1},
		{name: "integral floats", tag: ColDelta, vals: []string{"0", "1", "-1", "9007199254740993", "-9007199254740995",
			"9223372036854775807", "-9223372036854775808", "4611686018427387903"}},
		{name: "times over midnight, month ends and a leap day", tag: ColDelta, vals: []string{
			"20160131235959", "20160201000000", "20160228235959", "20160229000000", "20160229235959",
			"20160301000000", "20161231235959", "20170101000000", "20170101000001"}},
		{name: "a day that is not", tag: ColDelta, vals: []string{"20150228235959", "20150229000000", "20150301000000"}},
		{name: "a clock that is not", tag: ColDelta, vals: []string{"20160118093000", "20160118240000", "20160118093001"}},
		{name: "a clock that is not, then truncated", tag: ColDelta, data: append(
			mustEncode(t, ColDelta, []string{"20160118093000", "20160118096000"}), 0x80), rows: 3},
		{name: "short and long times", tag: ColDelta, vals: []string{"2016011809300", "20160118093000", "201601180930000", "0"}},
		{name: "unused unparseable entry", tag: ColDict, data: dict([]string{"x", "5", "1.5"}, 1, 3, 2, 2), rows: 5},
		{name: "used unparseable entry", tag: ColDict, data: dict([]string{"x", "5"}, 1, 3, 0, 2), rows: 5},
		{name: "null entry across runs", tag: ColDict, vals: []string{"", "", "7", "", "7", "7", "", ""}},
		{name: "multi-byte indexes", tag: ColDict, vals: append(append([]string(nil), many...), many...)},
		{name: "multi-byte runs at the end", tag: ColDict, vals: long},
		{name: "index past the dictionary", tag: ColDict, data: dict([]string{"1"}, 1, 1), rows: 1},
		{name: "run past the rows", tag: ColDict, data: dict([]string{"1"}, 0, 3), rows: 2},
		{name: "empty run", tag: ColDict, data: dict([]string{"1"}, 0, 0, 0, 1), rows: 1},
		{name: "plain digits and their neighbours", tag: ColPlain, vals: []string{"0", "007", "-5", "", "123456789012345678",
			"1234567890123456789", "9223372036854775808", "+5", "1.5", "12a", "-"}},
	}
	for _, tc := range cases {
		data, rows := tc.data, tc.rows
		if data == nil {
			data, rows = mustEncode(t, tc.tag, tc.vals), len(tc.vals)
		}
		t.Run(tc.name, func(t *testing.T) {
			checkTypedDecode(t, tc.tag, data, rows)
			if len(data) > 0 {
				checkTypedDecode(t, tc.tag, data[:len(data)-1], rows)
			}
		})
	}
}

func mustEncode(t *testing.T, tag byte, vals []string) []byte {
	t.Helper()
	data, err := EncodeColumn(nil, tag, vals)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestVarintLen: the chooser sizes a delta stream without writing it.
func TestVarintLen(t *testing.T) {
	var tmp [binary.MaxVarintLen64]byte
	rng := rand.New(rand.NewSource(17))
	vals := []int64{0, 1, -1, 63, 64, -64, -65, 8191, 8192, math.MaxInt64, math.MinInt64}
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.Int63()>>uint(rng.Intn(64))*int64(1-2*rng.Intn(2)))
	}
	for _, d := range vals {
		if got, want := varintLen(d), binary.PutVarint(tmp[:], d); got != want {
			t.Errorf("varintLen(%d) = %d, PutVarint writes %d bytes", d, got, want)
		}
	}
}

func two(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}

// TestChooseColumnRule pins the selection rule at the chunk sizes ingest
// produces. Dictionary coding needs eight rows per distinct value, whatever
// the row count: the old absolute entropy threshold (H < 6 bits) held for
// every column of a chunk under 64 rows, near-unique ones included.
func TestChooseColumnRule(t *testing.T) {
	col := func(rows int, gen func(i int) string) []string {
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = gen(i)
		}
		return vals
	}
	for _, rows := range []int{16, 64, 128, 2000} {
		cases := []struct {
			name     string
			vals     []string
			tag      byte
			distinct int
			zone     bool
		}{
			{"all-distinct text", col(rows, func(i int) string { return "u-" + strconv.Itoa(i) }), ColPlain, rows, false},
			{"all-distinct ints", col(rows, func(i int) string { return strconv.Itoa(7 * i) }), ColDelta, rows, true},
			{"constant", col(rows, func(int) string { return "VOICE" }), ColDict, 1, false},
			{"constant int", col(rows, func(int) string { return "42" }), ColDict, 1, true},
			{"blank", col(rows, func(int) string { return "" }), ColDict, 1, false},
			{"rows/8 distinct", col(rows, func(i int) string { return "k" + strconv.Itoa(i%(rows/8)) }), ColDict, rows / 8, false},
			{"rows/8+1 distinct", col(rows, func(i int) string { return "k" + strconv.Itoa(i%(rows/8+1)) }), ColPlain, rows/8 + 1, false},
			{"rows/8+1 distinct ints", col(rows, func(i int) string { return strconv.Itoa(i % (rows/8 + 1)) }), ColDelta, rows/8 + 1, true},
			// Low-cardinality integers take delta only where that is the
			// smaller stream at about a byte a row: values in no order, close
			// together. In runs the dictionary is smaller; two-byte deltas
			// pack no larger than index+run pairs but code worse.
			{"two small ints alternating", col(rows, func(i int) string { return strconv.Itoa(i % 2) }), ColDelta, 2, true},
			{"two small ints in two runs", col(rows, func(i int) string { return strconv.Itoa(2 * i / rows) }), ColDict, 2, true},
			{"two far ints alternating", col(rows, func(i int) string { return strconv.Itoa(100 * (i % 2)) }), ColDict, 2, true},
			{"half distinct", col(rows, func(i int) string { return "h" + strconv.Itoa(i/2) }), ColPlain, rows / 2, false},
			{"ints with one blank", col(rows, func(i int) string {
				if i == rows-1 {
					return ""
				}
				return strconv.Itoa(i)
			}), ColPlain, rows, false},
			{"non-canonical ints", col(rows, func(i int) string { return "0" + strconv.Itoa(i) }), ColPlain, rows, false},
		}
		for _, tc := range cases {
			ch := ChooseColumn(tc.vals)
			if ch.Tag != tc.tag || ch.Distinct != tc.distinct || ch.IntZone != tc.zone {
				t.Errorf("%d rows, %s: tag %s, distinct %d, int zone %v; want %s, %d, %v", rows, tc.name,
					ColumnTagName(ch.Tag), ch.Distinct, ch.IntZone, ColumnTagName(tc.tag), tc.distinct, tc.zone)
			}
			if h := math.Log2(float64(tc.distinct)); ch.EntropyBits < 0 || ch.EntropyBits > h+1e-9 {
				t.Errorf("%d rows, %s: entropy %g outside [0, log2(distinct) = %g]", rows, tc.name, ch.EntropyBits, h)
			}
		}
	}
	// The integer zone is the column's exact range.
	ch := ChooseColumn([]string{"5", "-3", "9223372036854775807", "0", "-9223372036854775808"})
	if !ch.IntZone || ch.Min != math.MinInt64 || ch.Max != math.MaxInt64 {
		t.Errorf("zone = %v [%d, %d], want the full int64 range", ch.IntZone, ch.Min, ch.Max)
	}
	if ch := ChooseColumn(nil); ch.Tag != ColPlain || ch.IntZone || ch.Distinct != 0 {
		t.Errorf("empty column: %+v, want plain, no zone", ch)
	}
	// Past the dictionary cap the count stops; the column cannot be
	// low-cardinality whatever its length.
	many := col(9*(maxDictEntries+1), func(i int) string { return "v" + strconv.Itoa(i%(maxDictEntries+1)) })
	if ch := ChooseColumn(many); ch.Tag != ColPlain || ch.Distinct != maxDictEntries+1 || ch.EntropyBits != 0 {
		t.Errorf("over the cap: tag %s, distinct %d, entropy %g", ColumnTagName(ch.Tag), ch.Distinct, ch.EntropyBits)
	}
}

// TestCanonicalInt holds the one-walk integer test to the definition it
// replaced: v is canonical exactly when FormatInt(ParseInt(v)) == v.
func TestCanonicalInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []string{"", "-", "0", "-0", "+0", "00", "7", "-7", "+7", "07", "1_000", "1e3", " 1", "1 ", "0x10",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551616", "99999999999999999999", "12a", "a12", "--1"}
	for i := 0; i < 2000; i++ {
		vals = append(vals, strconv.FormatInt(rng.Int63()>>uint(rng.Intn(64))-rng.Int63()>>uint(rng.Intn(64)), 10))
	}
	for _, v := range vals {
		x, err := strconv.ParseInt(v, 10, 64)
		want := err == nil && strconv.FormatInt(x, 10) == v
		got, ok := canonicalInt(v)
		if ok != want || (ok && got != x) {
			t.Errorf("canonicalInt(%q) = %d, %v; want %d, %v", v, got, ok, x, want)
		}
	}
}

// TestDecimalLen: wire-share accounting sizes a delta column's digits
// without rendering them.
func TestDecimalLen(t *testing.T) {
	vals := []int64{0, 1, -1, 9, 10, -10, 99, 100, 999999999, 1000000000, math.MaxInt64, math.MinInt64}
	for p := int64(1); p < math.MaxInt64/10; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p, 1-p)
	}
	for _, x := range vals {
		if got, want := decimalLen(x), len(strconv.FormatInt(x, 10)); got != want {
			t.Errorf("decimalLen(%d) = %d, FormatInt renders %d bytes", x, got, want)
		}
	}
}
