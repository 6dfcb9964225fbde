package compress

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestTypedDecodeProperty: over seeded random columns of every flavour a
// leaf can hold — blanks, escaped delimiters, negative and non-canonical
// integers, valid and impossible timestamps, floats — encoded with every
// codec that accepts them, the typed decoder equals ParseField over the
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
				if tag == ColDelta && !canDelta(vals) {
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

func two(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}
