package highlights

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"spate/internal/telco"
)

// randomSummary draws a summary with everything the encoding has a rule
// for: empty sections and value tables, zero times and times with
// nanoseconds, NaN, ±Inf and −0, the MaxCatValues overflow entry, negative
// and sparse cell ids (the int64 extremes among them), and attributes
// tracked in some cells only.
func randomSummary(rng *rand.Rand) *Summary { return randomMap(rng).summary() }

// randomMap is randomSummary's draw in the map shape.
func randomMap(rng *rand.Rand) *mapSummary {
	refs := []AttrRef{{"CDR", "downflux"}, {"CDR", "upflux"}, {"NMS", "drop_calls"}, {"NMS", "rssi_dbm"}, {"", ""}}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -7e300, math.SmallestNonzeroFloat64}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64() * 1e6
	}
	when := func() time.Time {
		switch rng.Intn(4) {
		case 0:
			return time.Time{}
		case 1:
			return time.Unix(1453075200+rng.Int63n(86400), rng.Int63n(1e9)).UTC()
		}
		return time.Unix(1453075200+rng.Int63n(86400), 0).UTC()
	}
	stats := func() *Stats {
		return &Stats{NonNull: rng.Int63n(1 << uint(rng.Intn(40))), Sum: float(), SumSq: float(), Min: float(), Max: float(), PeakTime: when()}
	}
	s := newMapSummary(telco.TimeRange{From: when(), To: when()})
	s.Rows = rng.Int63() - rng.Int63()
	empty := rng.Intn(4) // 0..2: leave that section empty
	if empty != 0 {
		for _, ref := range refs {
			if rng.Intn(3) > 0 {
				s.Num[ref] = stats()
			}
		}
	}
	if empty != 1 {
		for _, ref := range refs[:1+rng.Intn(len(refs))] {
			vals := make(map[string]*ValStat)
			for i := rng.Intn(6); i >= 0; i-- {
				vals[fmt.Sprintf("v%d", rng.Intn(100))] = &ValStat{Count: rng.Int63n(1000), First: when(), Last: when()}
			}
			if rng.Intn(2) == 0 {
				vals[overflowValue] = &ValStat{Count: rng.Int63n(1000), First: when(), Last: when()}
			}
			if rng.Intn(5) == 0 {
				vals[""] = &ValStat{}
			}
			s.Cat[ref] = vals
		}
	}
	if empty != 2 {
		ids := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}
		for i := rng.Intn(40); i > 0; i-- {
			ids = append(ids, rng.Int63n(1<<uint(1+rng.Intn(62)))-rng.Int63n(1<<20))
		}
		for _, id := range ids[rng.Intn(len(ids)):] {
			cs := &mapCell{Rows: rng.Int63n(1 << 20), Num: make(map[AttrRef]*Stats)}
			for _, ref := range refs[:4] {
				if rng.Intn(3) == 0 {
					cs.Num[ref] = stats()
				}
			}
			s.Cells[id] = cs
		}
	}
	return s
}

// sameSummary compares two summaries field by field, floats by their bits
// and times as values (location included).
func sameSummary(t *testing.T, gotSummary, wantSummary *Summary) {
	t.Helper()
	got, want := mapOf(gotSummary), mapOf(wantSummary)
	sameStats := func(what string, g, w *Stats) {
		t.Helper()
		if g == nil || g.NonNull != w.NonNull || g.PeakTime != w.PeakTime {
			t.Fatalf("%s: got %+v, want %+v", what, g, w)
		}
		for i, pair := range [][2]float64{{g.Sum, w.Sum}, {g.SumSq, w.SumSq}, {g.Min, w.Min}, {g.Max, w.Max}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s: float %d is %v, want %v", what, i, pair[0], pair[1])
			}
		}
	}
	if got.Period != want.Period || got.Rows != want.Rows {
		t.Fatalf("period/rows: got %v %d, want %v %d", got.Period, got.Rows, want.Period, want.Rows)
	}
	if len(got.Num) != len(want.Num) || len(got.Cat) != len(want.Cat) || len(got.Cells) != len(want.Cells) {
		t.Fatalf("sizes: got %d/%d/%d, want %d/%d/%d", len(got.Num), len(got.Cat), len(got.Cells), len(want.Num), len(want.Cat), len(want.Cells))
	}
	for ref, w := range want.Num {
		sameStats(fmt.Sprintf("num %v", ref), got.Num[ref], w)
	}
	for ref, wv := range want.Cat {
		gv := got.Cat[ref]
		if len(gv) != len(wv) {
			t.Fatalf("cat %v: %d values, want %d", ref, len(gv), len(wv))
		}
		for v, w := range wv {
			if g := gv[v]; g == nil || *g != *w {
				t.Fatalf("cat %v=%q: got %+v, want %+v", ref, v, g, w)
			}
		}
	}
	for id, w := range want.Cells {
		g := got.Cells[id]
		if g == nil || g.Rows != w.Rows || len(g.Num) != len(w.Num) || g.Num == nil {
			t.Fatalf("cell %d: got %+v, want %+v", id, g, w)
		}
		for ref, ws := range w.Num {
			sameStats(fmt.Sprintf("cell %d %v", id, ref), g.Num[ref], ws)
		}
	}
}

// TestEncodeDecodeRoundTrip: over seeded random summaries, Decode(Encode(s))
// is s field by field and bit for bit, Encode gives the same bytes every
// time, and no proper prefix of an encoding decodes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		s := randomSummary(rng)
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.Encode()
		if err != nil || !bytes.Equal(data, again) {
			t.Fatalf("trial %d: Encode is not deterministic (%v)", trial, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameSummary(t, got, s)
		if trial%10 == 0 {
			for n := 0; n < len(data); n++ {
				if _, err := Decode(data[:n]); err == nil {
					t.Fatalf("trial %d: a %d-byte prefix of %d bytes decoded", trial, n, len(data))
				}
			}
		}
	}
	// A folded summary comes back field for field, empty cell maps included,
	// and the copy encodes to the original's bytes.
	s := NewSummary(telco.NewTimeRange(t0, t0.Add(time.Hour)))
	s.AddTable(testConfig(), mkTable(rec(t0, 1, "VOICE", 60), rec(t0.Add(time.Minute), 2, "SMS", 0),
		telco.Record{telco.Time(t0), telco.Int(3), telco.Null, telco.Null}))
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	sameSummary(t, got, s)
	if again, err := got.Encode(); err != nil || !bytes.Equal(again, data) {
		t.Errorf("folded summary: the decoded copy encodes differently (%v)", err)
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("Decode(garbage) succeeded")
	}
	if _, err := DecodeBinary(legacyGob(t)); err == nil {
		t.Error("DecodeBinary read gob")
	}
}

// TestEncodeConcurrent: goroutines racing to encode one summary — the first
// encodings and the memoized ones after — all get the bytes a fresh,
// never-encoded copy of the summary encodes to. Under -race it pins the
// memo's publication.
func TestEncodeConcurrent(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		s := randomSummary(rand.New(rand.NewSource(trial)))
		want, _ := randomSummary(rand.New(rand.NewSource(trial))).Encode()
		const n = 16
		out := make([][]byte, n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range out {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for rep := 0; rep < 4; rep++ {
					b, err := s.Encode()
					if err != nil || (out[i] != nil && !bytes.Equal(b, out[i])) {
						t.Errorf("goroutine %d: encoding changed between calls (%v)", i, err)
						return
					}
					out[i] = b
				}
			}(i)
		}
		close(start)
		wg.Wait()
		if s.EncodedLen() != len(want) {
			t.Fatalf("trial %d: EncodedLen %d, encoding %d bytes", trial, s.EncodedLen(), len(want))
		}
		for i, b := range out {
			if !bytes.Equal(b, want) {
				t.Fatalf("trial %d: goroutine %d got %d bytes unlike the %d of a fresh encoding", trial, i, len(b), len(want))
			}
		}
	}
}

// legacySummary is the summary testdata/summary-gob.bin holds, written by
// the gob encoder summaries were persisted with before the binary form.
func legacySummary() *Summary {
	cfg := testConfig()
	cfg.MaxCatValues = 3
	s := NewSummary(telco.NewTimeRange(t0, t0.Add(24*time.Hour)))
	s.AddTable(cfg, mkTable(
		rec(t0, 1, "VOICE", 60),
		rec(t0.Add(time.Minute), -3, "SMS", 0),
		rec(t0.Add(2*time.Minute), 1, "DATA", 120),
		rec(t0.Add(3*time.Minute), 40000, "MMS", 7),
		rec(t0.Add(4*time.Minute), 1, "VOICE", 15),
	))
	return s
}

func legacyGob(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/summary-gob.bin")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeLegacyGob: a summary the gob encoder wrote still decodes, to
// exactly the summary it was written from.
func TestDecodeLegacyGob(t *testing.T) {
	got, err := Decode(legacyGob(t))
	if err != nil {
		t.Fatal(err)
	}
	want := legacySummary()
	if _, ok := mapOf(want).Cat[AttrRef{"CDR", "call_type"}][overflowValue]; !ok {
		t.Fatal("fixture summary lost its overflow entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("legacy gob decoded to %+v, want %+v", got, want)
	}
}

// allocBound is what decoding or merging n bytes may allocate: the smallest
// encodings of a cell, a categorical value and an attribute become array
// entries and strings a few dozen times their size.
func allocBound(n int) uint64 { return uint64(64*n + 64<<10) }

// allocated returns the bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeSummary: the binary decoder never panics, allocates no more
// than a bound proportional to its input, and whatever it accepts
// re-encodes to a form that decodes and re-encodes to itself. Merging the
// accepted part's encoding (Merge over DecodeBinary) stays within the same
// bound and encodes as the reference merge of its decoding does, and so
// does merging it beside a seeded random part, in either order. Legacy gob
// is outside it: gob sizes maps from counts in the stream, without a bound.
func FuzzDecodeSummary(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data, err := randomSummary(rng).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The costliest input per byte: cells without attributes, 3 bytes each.
	sparse := mapOf(legacySummary())
	for id := int64(0); id < 5000; id++ {
		sparse.Cells[id] = &mapCell{Num: map[AttrRef]*Stats{}}
	}
	// The costliest merge: cells each tracking an attribute of its own.
	for _, s := range []*Summary{legacySummary(), sparse.summary(), sparsePart(300)} {
		data, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *Summary
		var err error
		if n := allocated(func() { s, err = DecodeBinary(data) }); n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		period := s.Period
		var merged *Summary
		if n := allocated(func() { merged, err = mergeEncoded(period, [][]byte{data}) }); n > allocBound(len(data)) {
			t.Fatalf("merging a %d-byte part allocated %d", len(data), n)
		}
		if err != nil {
			t.Fatalf("merging an accepted part: %v", err)
		}
		got, _ := merged.Encode()
		want, _ := refMerge(period, mapOf(s)).summary().Encode()
		if !bytes.Equal(got, want) {
			t.Fatal("merging one part encodes unlike the reference merge of its decoding")
		}
		// Beside a second part, either side of it: the accepted part's
		// cells, attributes and values meet the partner's.
		partner, _ := randomSummary(rand.New(rand.NewSource(int64(len(data))))).Encode()
		partnerDecoded, err := DecodeBinary(partner)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			encs := [2][]byte{data, partner}
			decs := [2]*Summary{s, partnerDecoded}
			merged, err := mergeEncoded(period, [][]byte{encs[order[0]], encs[order[1]]})
			if err != nil {
				t.Fatalf("merging two accepted parts: %v", err)
			}
			got, _ := merged.Encode()
			want, _ := refMerge(period, mapOf(decs[order[0]]), mapOf(decs[order[1]])).summary().Encode()
			if !bytes.Equal(got, want) {
				t.Fatalf("merging two parts (order %v) encodes unlike the reference merge of their decodings", order)
			}
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded summary does not decode: %v", err)
		}
		if enc2, err := s2.Encode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable (%v)", err)
		}
	})
}
