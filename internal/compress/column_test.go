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
