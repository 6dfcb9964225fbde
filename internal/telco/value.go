// Package telco defines the data model of a telecommunication provider's
// big-data streams as described in the SPATE paper (ICDE 2017): Call Detail
// Records (CDR), Network Measurement System reports (NMS) and the static
// cell inventory (CELL).
//
// Records are typed rows under a fixed Schema. The value domains mirror the
// paper's observation that telco data "mostly contains string and integer
// values" with a large number (~200) of attributes, many of which are
// optional and frequently blank (entropy 0 in Figure 4 of the paper).
package telco

import (
	"fmt"
	"strconv"
	"time"
)

// Kind enumerates the primitive types a telco attribute can take.
type Kind uint8

// Supported value kinds. KindTime values carry second resolution, which is
// enough for 30-minute ingestion epochs.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindTime
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TimeLayout is the wire format for KindTime values: the paper's compact
// timestamp literals (e.g. ts="201601221530" in task T1) extended to second
// resolution, which real CDR streams carry.
const TimeLayout = "20060102150405"

// Value is a single attribute value: a tagged union over the telco kinds.
// The zero Value is the null value.
type Value struct {
	kind Kind
	str  string
	num  int64 // int payload, or unix seconds for KindTime
	f    float64
}

// Null is the null value.
var Null = Value{}

// String wraps s as a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int wraps i as an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float wraps f as a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Time wraps t as a time value with second resolution.
func Time(t time.Time) Value { return Value{kind: KindTime, num: t.Unix()} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// Int64 returns the integer payload. It is only meaningful for KindInt.
func (v Value) Int64() int64 { return v.num }

// Float64 returns the numeric payload as a float64 for KindInt and
// KindFloat values, and 0 otherwise.
func (v Value) Float64() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.num)
	default:
		return 0
	}
}

// Time returns the time payload. It is only meaningful for KindTime.
func (v Value) Time() time.Time { return time.Unix(v.num, 0).UTC() }

// Format renders the value in its wire (text) form. Null renders as the
// empty string, matching the blank optional attributes of real CDR files.
func (v Value) Format() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindString:
		return v.str
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindTime:
		return v.Time().Format(TimeLayout)
	default:
		return ""
	}
}

// ParseValue parses the wire form s into a value of kind k. An empty string
// parses as Null for any kind, mirroring blank optional attributes.
func ParseValue(k Kind, s string) (Value, error) {
	if s == "" {
		return Null, nil
	}
	switch k {
	case KindString:
		return String(s), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("telco: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("telco: parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindTime:
		if sec, ok := parseWireTime(s); ok {
			return Value{kind: KindTime, num: sec}, nil
		}
		t, err := time.ParseInLocation(TimeLayout, s, time.UTC)
		if err != nil {
			return Null, fmt.Errorf("telco: parse time %q: %w", s, err)
		}
		return Time(t), nil
	case KindNull:
		return Null, nil
	default:
		return Null, fmt.Errorf("telco: unknown kind %v", k)
	}
}

// parseWireTime is the arithmetic fast path for TimeLayout: fourteen
// digits naming a valid UTC civil time convert to Unix seconds without the
// layout interpreter. Anything else (wrong length, a non-digit, a field
// out of range) reports false and falls to time.ParseInLocation, which
// owns the error text — so ParseValue accepts and rejects exactly what it
// always did.
func parseWireTime[T string | []byte](s T) (int64, bool) {
	if len(s) != len(TimeLayout) {
		return 0, false
	}
	var f [14]int64
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		f[i] = int64(c)
	}
	return civilUnix(
		f[0]*1000+f[1]*100+f[2]*10+f[3],
		f[4]*10+f[5], f[6]*10+f[7],
		f[8]*10+f[9], f[10]*10+f[11], f[12]*10+f[13])
}

// civilUnix converts a proleptic-Gregorian UTC civil time to Unix seconds,
// reporting false when a field is outside the range time.Parse accepts.
func civilUnix(y, mo, d, h, mi, sec int64) (int64, bool) {
	if mo < 1 || mo > 12 || d < 1 || h > 23 || mi > 59 || sec > 59 {
		return 0, false
	}
	dim := int64(31)
	switch mo {
	case 4, 6, 9, 11:
		dim = 30
	case 2:
		dim = 28
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			dim = 29
		}
	}
	if d > dim {
		return 0, false
	}
	// Days since 1970-01-01 by era arithmetic over 400-year cycles, the
	// year shifted to start in March so the leap day falls last.
	if mo <= 2 {
		y--
		mo += 12
	}
	era := y / 400
	if y < 0 {
		era = (y - 399) / 400
	}
	yoe := y - era*400
	doy := (153*(mo-3)+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	days := era*146097 + doe - 719468
	return days*86400 + h*3600 + mi*60 + sec, true
}

// ValueOfInt returns the value ParseValue(k, strconv.FormatInt(x, 10))
// yields — how a delta-coded column stream, which stores canonical
// integers, turns into typed values without rendering and re-parsing the
// digits. Integer columns take x as is and time columns read x as the
// fourteen wire digits.
func ValueOfInt(k Kind, x int64) (Value, error) {
	switch k {
	case KindInt:
		return Int(x), nil
	case KindTime:
		if x >= 1e13 && x < 1e14 { // exactly fourteen digits, no sign
			day, clock := x/1e6, x%1e6
			if sec, ok := civilUnix(day/1e4, day/100%100, day%100, clock/1e4, clock/100%100, clock%100); ok {
				return Value{kind: KindTime, num: sec}, nil
			}
		}
	}
	return ParseValue(k, strconv.FormatInt(x, 10))
}

// Equal reports deep equality of two values.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.str == w.str
	case KindInt, KindTime:
		return v.num == w.num
	case KindFloat:
		return v.f == w.f
	default:
		return true
	}
}

// Compare orders two values. Nulls sort first; values of different kinds
// order by kind; otherwise by natural order. It returns -1, 0 or +1.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		// Numeric kinds compare cross-kind by numeric value.
		if v.isNumeric() && w.isNumeric() {
			return cmpFloat(v.Float64(), w.Float64())
		}
		return cmpInt(int64(v.kind), int64(w.kind))
	}
	switch v.kind {
	case KindString:
		switch {
		case v.str < w.str:
			return -1
		case v.str > w.str:
			return 1
		}
		return 0
	case KindInt, KindTime:
		return cmpInt(v.num, w.num)
	case KindFloat:
		return cmpFloat(v.f, w.f)
	default:
		return 0
	}
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
