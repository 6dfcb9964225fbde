package compress

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"spate/internal/telco"
)

// typedKinds are the value kinds a column stream can decode into.
var typedKinds = []telco.Kind{telco.KindString, telco.KindInt, telco.KindFloat, telco.KindTime, telco.KindNull}

// checkTypedDecode holds DecodeColumnBatch to its contract against
// DecodeColumn over the same stream, for every kind: a stream the string
// decoder rejects is rejected; otherwise row i of the batch column is
// exactly telco.ParseField(kind, field i) — the same kind, payload and
// nullness, read back both one value at a time and through the record
// materializer — a parse failure anywhere fails the decode, and the
// reported wire bytes are the fields' lengths plus one separator each.
// Every stream decodes twice, counting wire bytes and not, into columns
// that must come out identical, errors included. The columns are reused
// across kinds and calls, as a scan worker's are.
func checkTypedDecode(t *testing.T, tag byte, data []byte, rows int) {
	t.Helper()
	fields, strErr := DecodeColumn(nil, tag, data, rows)
	pristine := append([]byte(nil), data...)
	for _, kind := range typedKinds {
		schema := telco.MustSchema("T", []telco.Field{{Name: "c", Kind: kind}})
		typedBatch.Reset(schema, nil, rows)
		col := &typedBatch.Cols[0]
		wire, err := DecodeColumnBatch(col, tag, data, rows, true)
		uncounted.Reset(schema, nil, rows)
		noWire, noWireErr := DecodeColumnBatch(&uncounted.Cols[0], tag, data, rows, false)
		if !bytes.Equal(data, pristine) {
			t.Fatalf("tag %d kind %v: decode wrote into the stream it aliases", tag, kind)
		}
		if fmt.Sprint(err) != fmt.Sprint(noWireErr) {
			t.Fatalf("tag %d kind %v: counting wire bytes, the decode fails with %v; without, %v", tag, kind, err, noWireErr)
		}
		if err == nil {
			if noWire != 0 {
				t.Fatalf("tag %d kind %v: %d wire bytes reported uncounted", tag, kind, noWire)
			}
			sameColumn(t, fmt.Sprintf("tag %d kind %v", tag, kind), col, &uncounted.Cols[0], rows)
		}
		if strErr != nil {
			if err == nil {
				t.Fatalf("tag %d kind %v: typed decode accepted a stream the string decoder rejects (%v)", tag, kind, strErr)
			}
			continue
		}
		var wantWire int64
		var parseErr error
		want := make([]telco.Value, rows)
		for i, f := range fields {
			wantWire += int64(len(f)) + 1
			v, perr := telco.ParseField(kind, f)
			if perr != nil && parseErr == nil {
				parseErr = perr
			}
			want[i] = v
		}
		if parseErr != nil {
			if err == nil {
				t.Fatalf("tag %d kind %v: typed decode succeeded where ParseField fails: %v", tag, kind, parseErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("tag %d kind %v: typed decode: %v (fields %q parse cleanly)", tag, kind, err, fields)
		}
		if wire != wantWire {
			t.Fatalf("tag %d kind %v: wire = %d, want %d", tag, kind, wire, wantWire)
		}
		recs := typedBatch.AppendRecords(nil)
		if len(recs) != rows {
			t.Fatalf("tag %d kind %v: %d records materialized, want %d", tag, kind, len(recs), rows)
		}
		nulls := 0
		for i := range want {
			for _, got := range []telco.Value{col.Value(i), recs[i][0]} {
				if got.Kind() != want[i].Kind() || !sameValue(got, want[i]) {
					t.Fatalf("tag %d kind %v: row %d = %v %q, want %v %q (field %q)",
						tag, kind, i, got.Kind(), got.Format(), want[i].Kind(), want[i].Format(), fields[i])
				}
			}
			if col.Null(i) != want[i].IsNull() {
				t.Fatalf("tag %d kind %v: row %d null = %v (field %q)", tag, kind, i, col.Null(i), fields[i])
			}
			if want[i].IsNull() {
				nulls++
			}
		}
		if kind != telco.KindString && col.NullCount != nulls {
			t.Fatalf("tag %d kind %v: NullCount = %d, %d rows are null", tag, kind, col.NullCount, nulls)
		}
	}
}

// sameValue is Equal, but bit for bit on floats — -0 is not 0 — and
// holding two NaN floats the same: a field such as "NaN" or "nAn" parses to
// NaN, which Equal finds unequal to itself.
func sameValue(a, b telco.Value) bool {
	if a.Kind() == telco.KindFloat && b.Kind() == telco.KindFloat {
		x, y := a.Float64(), b.Float64()
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return a.Equal(b)
}

// sameColumn requires two decodes of one stream to agree row for row:
// value, nullness, null count and run boundaries.
func sameColumn(t *testing.T, what string, a, b *telco.Column, rows int) {
	t.Helper()
	if a.NullCount != b.NullCount || !slices.Equal(a.Runs, b.Runs) {
		t.Fatalf("%s: null count %d and runs %v against %d and %v", what, a.NullCount, a.Runs, b.NullCount, b.Runs)
	}
	for i := 0; i < rows; i++ {
		if x, y := a.Value(i), b.Value(i); a.Null(i) != b.Null(i) || x.Kind() != y.Kind() || !sameValue(x, y) {
			t.Fatalf("%s: row %d decodes to %v %q and to %v %q", what, i, x.Kind(), x.Format(), y.Kind(), y.Format())
		}
	}
}

// typedBatch and uncounted are the batches every checkTypedDecode call
// decodes into, counting wire bytes and not.
var typedBatch, uncounted telco.Batch

// FuzzDecodeColumn drives arbitrary bytes through every column codec, the
// string decoder and the typed one. Three invariants: a decoder never
// panics (corrupt streams must fail as Corruptf errors), any stream the
// string decoder accepts describes exactly rows values that survive a
// re-encode/re-decode round trip, and the batch decoder agrees with the
// string decoder field for field in every kind (checkTypedDecode) — so an
// attacker (or a flipped DFS bit) can at worst produce a loud error, never
// a silently wrong column.
func FuzzDecodeColumn(f *testing.F) {
	seed := func(tag byte, values []string, rows int) {
		enc, err := EncodeColumn(nil, tag, values)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tag, uint16(rows), enc)
	}
	seed(ColPlain, []string{"a", "b", "a"}, 3)
	seed(ColDict, []string{"VOICE", "VOICE", "DATA", "VOICE"}, 4)
	seed(ColDelta, []string{"1453476600", "1453476601", "1453476603"}, 3)
	seed(ColDelta, []string{"20160118093000", "20160118093001", "20160230000000"}, 3)
	seed(ColPlain, []string{"", "007", "-5", "a\\pb", "20160118093000"}, 5)
	seed(ColDict, []string{"", "", "1.5", "1.5", "x\\ny"}, 5)
	f.Add(ColDict, uint16(100), []byte{0x01, 0x00, 0x00, 0xff})
	f.Add(ColDelta, uint16(7), []byte{0x80})
	f.Add(byte(9), uint16(1), []byte("junk"))
	f.Add(ColPlain, uint16(1), []byte("nAn")) // a float NaN, read alike by both decoders

	f.Fuzz(func(t *testing.T, tag byte, rows uint16, data []byte) {
		n := int(rows % 4096)
		checkTypedDecode(t, tag, data, n)
		vals, err := DecodeColumn(nil, tag, data, n)
		if err != nil {
			return
		}
		if len(vals) != n {
			t.Fatalf("tag %d: decoded %d values, want %d", tag, len(vals), n)
		}
		enc, err := EncodeColumn(nil, tag, vals)
		if err != nil {
			t.Fatalf("tag %d: re-encode of accepted values: %v", tag, err)
		}
		back, err := DecodeColumn(nil, tag, enc, n)
		if err != nil {
			t.Fatalf("tag %d: re-decode: %v", tag, err)
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("tag %d: row %d = %q after round trip, want %q", tag, i, back[i], vals[i])
			}
		}
	})
}
