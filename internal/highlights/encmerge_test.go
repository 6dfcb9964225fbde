package highlights

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spate/internal/telco"
)

// randomParts draws a part list for a merge: empty parts among them, cells
// that overlap across parts (ids from a small pool) beside disjoint ones,
// attributes present in some parts only, and stats with NonNull == 0 —
// entries Merge keeps without folding their values.
func randomParts(rng *rand.Rand) []*Summary {
	parts := make([]*Summary, rng.Intn(7))
	for i := range parts {
		if rng.Intn(5) == 0 {
			from := time.Unix(1453075200+rng.Int63n(86400), 0).UTC()
			parts[i] = NewSummary(telco.TimeRange{From: from, To: from.Add(30 * time.Minute)})
			continue
		}
		// Draw in key order: the draws, not map order, decide the parts.
		s := randomMap(rng)
		for _, id := range sortedIDs(s.Cells) {
			if rng.Intn(2) == 0 {
				cs := s.Cells[id]
				delete(s.Cells, id)
				s.Cells[rng.Int63n(8)] = cs
			}
		}
		unseen := func(num map[AttrRef]*Stats) {
			refs := make([]AttrRef, 0, len(num))
			for ref := range num {
				refs = append(refs, ref)
			}
			slices.SortFunc(refs, compareRefs)
			for _, ref := range refs {
				if rng.Intn(4) == 0 {
					num[ref].NonNull = 0
				}
			}
		}
		unseen(s.Num)
		for _, id := range sortedIDs(s.Cells) {
			unseen(s.Cells[id].Num)
		}
		parts[i] = s.summary()
	}
	return parts
}

func sortedIDs(cells map[int64]*mapCell) []int64 {
	ids := make([]int64, 0, len(cells))
	for id := range cells {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// mergeEncoded merges parts in their binary form the way a cluster
// coordinator does: each part decodes (DecodeBinary) and the decodings
// merge. A part that does not decode fails the merge.
func mergeEncoded(period telco.TimeRange, encs [][]byte) (*Summary, error) {
	decoded := make([]*Summary, len(encs))
	for i, data := range encs {
		var err error
		if decoded[i], err = DecodeBinary(data); err != nil {
			return nil, err
		}
	}
	return Merge(period, decoded...), nil
}

// TestMergeEncodedMatchesMerge: over seeded random part lists, merging the
// encodings (Merge over DecodeBinary) gives the summary — field by field,
// bit for bit, and in its encoding — that merging the parts as built gives.
func TestMergeEncodedMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	period := telco.TimeRange{From: time.Unix(1453075200, 0).UTC(), To: time.Unix(1453161600, 0).UTC()}
	for trial := 0; trial < 500; trial++ {
		parts := randomParts(rng)
		encs := make([][]byte, len(parts))
		for i, p := range parts {
			encs[i], _ = p.Encode()
		}
		got, err := mergeEncoded(period, encs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := Merge(period, parts...)
		sameSummary(t, got, want)
		g, _ := got.Encode()
		w, _ := want.Encode()
		if !bytes.Equal(g, w) {
			t.Fatalf("trial %d: %d parts: the encodings differ", trial, len(parts))
		}
	}
}

// TestMergeEncodedRejectsBadPart: a part that does not decode fails the
// merge of the encodings, wherever it stands in the list.
func TestMergeEncodedRejectsBadPart(t *testing.T) {
	good, _ := randomSummary(rand.New(rand.NewSource(1))).Encode()
	bad := good[:len(good)-1]
	for _, parts := range [][][]byte{{bad}, {good, bad}, {bad, good}} {
		if _, err := mergeEncoded(telco.TimeRange{}, parts); err == nil {
			t.Errorf("a %d-part merge with a cut-short part succeeded", len(parts))
		}
	}
}

// sparsePart is a part of cells each tracking an attribute of its own: as
// many attributes as cells, so anything dense in cells × attributes costs
// the square of the part's size.
func sparsePart(cells int) *Summary {
	m := newMapSummary(telco.TimeRange{From: t0, To: t0.Add(time.Hour)})
	for id := 0; id < cells; id++ {
		m.Cells[int64(id)] = &mapCell{Rows: 1, Num: map[AttrRef]*Stats{
			{"T", fmt.Sprintf("a%05d", id)}: {NonNull: 1, Sum: 1, SumSq: 1, Min: 1, Max: 1, PeakTime: t0},
		}}
	}
	return m.summary()
}

// TestSparsePartBounded: decoding a sparse part, merging its decoding and
// merging its encoding (decoding it and merging that) each allocate within
// allocBound of the part's bytes and take well under a tenth of a second.
func TestSparsePartBounded(t *testing.T) {
	data, _ := sparsePart(2000).Encode()
	if len(data) < 40<<10 {
		t.Fatalf("the sparse part encodes to %d bytes", len(data))
	}
	decoded, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"DecodeBinary":       func() { DecodeBinary(data) },
		"Merge":              func() { Merge(decoded.Period, decoded) },
		"Merge∘DecodeBinary": func() { mergeEncoded(decoded.Period, [][]byte{data}) },
	} {
		start := time.Now()
		n := allocated(f)
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%s of a %d-byte sparse part took %v", name, len(data), took)
		}
		if n > allocBound(len(data)) {
			t.Errorf("%s of a %d-byte sparse part allocated %d bytes, over %d", name, len(data), n, allocBound(len(data)))
		}
	}
	merged, _ := mergeEncoded(decoded.Period, [][]byte{data})
	if got, _ := merged.Encode(); !bytes.Equal(got, data) {
		t.Error("merging the one sparse part changed it")
	}
}

// benchParts are two day-sized parts sharing their cells, as a cluster
// explore across a day boundary merges them.
func benchParts() [][]byte {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig()
	var parts [][]byte
	for day := 0; day < 2; day++ {
		from := time.Unix(1453075200+int64(day)*86400, 0).UTC()
		s := newMapSummary(telco.TimeRange{From: from, To: from.Add(24 * time.Hour)})
		for _, ref := range cfg.Numeric {
			s.Num[ref] = &Stats{NonNull: 1000, Sum: rng.Float64(), SumSq: rng.Float64(), Min: -1, Max: 9, PeakTime: from}
		}
		for _, ref := range cfg.Categorical {
			vals := make(map[string]*ValStat)
			for v := 0; v < 8; v++ {
				vals[string(rune('A'+v))] = &ValStat{Count: 10, First: from, Last: from.Add(time.Hour)}
			}
			s.Cat[ref] = vals
		}
		for id := int64(0); id < 500; id++ {
			cs := &mapCell{Rows: 40, Num: make(map[AttrRef]*Stats)}
			for _, ref := range cfg.CellAttrs {
				cs.Num[ref] = &Stats{NonNull: 40, Sum: rng.Float64(), SumSq: rng.Float64(), Min: -1, Max: rng.Float64(), PeakTime: from.Add(time.Duration(rng.Intn(86400)) * time.Second)}
			}
			s.Cells[1000+id*7] = cs
		}
		data, _ := s.summary().Encode()
		parts = append(parts, data)
	}
	return parts
}

// BenchmarkDecodeBinary decodes the parts of a cluster explore across a
// day boundary, as a coordinator does in each replica's goroutine.
func BenchmarkDecodeBinary(b *testing.B) {
	parts := benchParts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range parts {
			if _, err := DecodeBinary(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMergeEncoded merges those parts from their encodings: each
// decoded, then the decodings merged.
func BenchmarkMergeEncoded(b *testing.B) {
	parts := benchParts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mergeEncoded(telco.TimeRange{}, parts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	var parts []*Summary
	for _, p := range benchParts() {
		s, err := DecodeBinary(p)
		if err != nil {
			b.Fatal(err)
		}
		parts = append(parts, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(telco.TimeRange{}, parts...)
	}
}
