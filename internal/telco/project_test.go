package telco

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWireTimeMatchesTimeParse: the arithmetic timestamp path accepts and
// rejects exactly what time.ParseInLocation does under TimeLayout, and
// agrees with it on every accepted instant — leap days, year bounds and
// every out-of-range field included.
func TestWireTimeMatchesTimeParse(t *testing.T) {
	cases := []string{
		"20160118093000", "19700101000000", "00000101000000", "99991231235959",
		"20160229120000", "20150229120000", "19000229000000", "20000229000000",
		"20160431000000", "20160100000000", "20161301000000", "20160001000000",
		"20160118240000", "20160118096000", "20160118093060", "2016011809300",
		"201601180930000", "2016011809300x", " 0160118093000", "+2016011809300",
		"",
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		cases = append(cases, fmt.Sprintf("%04d%02d%02d%02d%02d%02d",
			rng.Intn(10000), rng.Intn(14), rng.Intn(33), rng.Intn(26), rng.Intn(62), rng.Intn(62)))
	}
	for _, s := range cases {
		want, err := time.ParseInLocation(TimeLayout, s, time.UTC)
		sec, ok := parseWireTime(s)
		if ok != (err == nil) {
			t.Fatalf("%q: fast path ok=%v, time.Parse err=%v", s, ok, err)
		}
		if ok && sec != want.Unix() {
			t.Fatalf("%q: fast path = %d, time.Parse = %d", s, sec, want.Unix())
		}
	}
}

// TestValueOfIntMatchesParseValue: ValueOfInt(k, x) is ParseValue over x's
// decimal rendering for every kind, errors included.
func TestValueOfIntMatchesParseValue(t *testing.T) {
	xs := []int64{0, 1, -1, 42, -300, 20160118093000, 20160230000000, 20161318093000,
		9999999999999, 10000000000000, 99991231235959, 100000000000000, -20160118093000,
		1 << 53, 1<<53 + 1, -1 << 63, 1<<63 - 1}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		xs = append(xs, rng.Int63()-rng.Int63(), 20000101000000+rng.Int63n(400000000000))
	}
	for _, k := range []Kind{KindNull, KindString, KindInt, KindFloat, KindTime} {
		for _, x := range xs {
			want, wantErr := ParseValue(k, strconv.FormatInt(x, 10))
			got, err := ValueOfInt(k, x)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("kind %v x %d: err = %v, ParseValue err = %v", k, x, err, wantErr)
			}
			if err == nil && (got.Kind() != want.Kind() || !got.Equal(want)) {
				t.Fatalf("kind %v x %d: got %v %q, want %v %q", k, x, got.Kind(), got.Format(), want.Kind(), want.Format())
			}
		}
	}
}

var projSchema = MustSchema("T", []Field{
	{Name: "ts", Kind: KindTime},
	{Name: "who", Kind: KindString},
	{Name: "n", Kind: KindInt},
	{Name: "f", Kind: KindFloat},
	{Name: "note", Kind: KindString, Optional: true},
})

func TestSchemaProject(t *testing.T) {
	if got := projSchema.Project(nil); got != projSchema {
		t.Error("Project(nil) did not return the schema itself")
	}
	if got := projSchema.Project([]int{0, 1, 2, 3, 4}); got != projSchema {
		t.Error("Project(every column) did not return the schema itself")
	}
	p := projSchema.Project([]int{0, 2, 4})
	if p.Name != "T" || strings.Join(p.FieldNames(), ",") != "ts,n,note" {
		t.Fatalf("projection = %s", p)
	}
	if p.FieldIndex("n") != 1 || p.FieldIndex("who") != -1 || p.Field(2).Kind != KindString {
		t.Errorf("projection lookups: n at %d, who at %d", p.FieldIndex("n"), p.FieldIndex("who"))
	}
	if empty := projSchema.Project([]int{}); empty.NumFields() != 0 {
		t.Errorf("empty projection has %d fields", empty.NumFields())
	}
}

// TestDecodeRowsMatchesReadTable: for seeded random tables (blanks,
// escaped delimiters and newlines, negative numbers) and random column
// subsets, DecodeRows over the wire text equals ReadTable restricted to the
// subset, and ProjectRows narrows in-memory records to the same rows; the
// wire count is the kept fields' share of the text.
func TestDecodeRowsMatchesReadTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := []string{"", "alice", "a|b", `back\slash`, "two\nlines", "|", `\`, "plain text"}
	for trial := 0; trial < 200; trial++ {
		tab := NewTable(projSchema)
		for i := rng.Intn(40); i > 0; i-- {
			r := Record{
				Time(time.Unix(rng.Int63n(2e9), 0)), String(words[rng.Intn(len(words))]),
				Int(rng.Int63n(2000) - 1000), Float(rng.NormFloat64()), String(words[rng.Intn(len(words))]),
			}
			for j := range r {
				if rng.Intn(5) == 0 {
					r[j] = Null
				}
			}
			tab.Append(r)
		}
		text := []byte(tab.Text())
		full, err := ReadTable(projSchema, bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		var cols []int // nil on some trials: every column
		if rng.Intn(4) > 0 {
			cols = []int{}
			for c := 0; c < projSchema.NumFields(); c++ {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
		}
		rows, wire, err := DecodeRows(projSchema, cols, text)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ProjectRows(full.Rows, cols)
		if len(rows) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(rows), len(want))
		}
		var wantWire int64
		for i := range rows {
			if len(rows[i]) != len(want[i]) {
				t.Fatalf("trial %d row %d: width %d, want %d", trial, i, len(rows[i]), len(want[i]))
			}
			for j := range rows[i] {
				if rows[i][j].Kind() != want[i][j].Kind() || !rows[i][j].Equal(want[i][j]) {
					t.Fatalf("trial %d row %d col %d: %q, want %q", trial, i, j, rows[i][j].Format(), want[i][j].Format())
				}
			}
			for _, f := range want[i].AppendFields(nil) {
				wantWire += int64(len(f)) + 1
			}
		}
		if wire != wantWire {
			t.Fatalf("trial %d: wire = %d, want %d", trial, wire, wantWire)
		}
		if cols == nil && wire != int64(len(text)) {
			t.Fatalf("trial %d: full decode wire = %d, text is %d bytes", trial, wire, len(text))
		}
	}
}

// TestDecodeRowsAcceptsWhatReadTableAccepts pins the edge shapes of the
// text: blank lines, CRLF endings, a missing final newline, escaped
// delimiters next to real ones — and the errors for a short line and for
// an unparsable kept field (an unparsable field outside the projection is
// never looked at).
func TestDecodeRowsAcceptsWhatReadTableAccepts(t *testing.T) {
	text := "20160118093000|a\\pb|1|1.5|x\r\n\n20160118093001||-2||\\\\\n20160118093002|c|3|2.5|last"
	full, err := ReadTable(projSchema, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{nil, {1}, {0, 4}, {2, 3}} {
		rows, _, err := DecodeRows(projSchema, cols, []byte(text))
		if err != nil {
			t.Fatalf("cols %v: %v", cols, err)
		}
		want := ProjectRows(full.Rows, cols)
		if len(rows) != 3 {
			t.Fatalf("cols %v: %d rows, want 3", cols, len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				if !rows[i][j].Equal(want[i][j]) {
					t.Errorf("cols %v row %d col %d: %q, want %q", cols, i, j, rows[i][j].Format(), want[i][j].Format())
				}
			}
		}
	}
	if _, _, err := DecodeRows(projSchema, []int{0}, []byte("20160118093000|a|1\n")); err == nil {
		t.Error("a three-field line decoded under a five-field schema")
	}
	if _, _, err := DecodeRows(projSchema, []int{0}, []byte("20160118093000|a|1|1|x|extra\n")); err == nil {
		t.Error("a six-field line decoded under a five-field schema")
	}
	bad := []byte("20160118093000|a|notanint|1|x\n")
	if _, _, err := DecodeRows(projSchema, []int{2}, bad); err == nil {
		t.Error("an unparsable kept field decoded")
	}
	if _, _, err := DecodeRows(projSchema, []int{0, 1}, bad); err != nil {
		t.Errorf("an unparsable field outside the projection failed the decode: %v", err)
	}
}
