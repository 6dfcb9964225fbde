package highlights

import (
	"bytes"
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
		s := randomSummary(rng)
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
		parts[i] = s
	}
	return parts
}

func sortedIDs(cells map[int64]*CellStats) []int64 {
	ids := make([]int64, 0, len(cells))
	for id := range cells {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestMergeEncodedMatchesMerge: over seeded random part lists, merging the
// encodings gives the summary — field by field, bit for bit, and in its
// encoding — that merging their decodings gives.
func TestMergeEncodedMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	period := telco.TimeRange{From: time.Unix(1453075200, 0).UTC(), To: time.Unix(1453161600, 0).UTC()}
	for trial := 0; trial < 500; trial++ {
		parts := randomParts(rng)
		encs := make([][]byte, len(parts))
		decoded := make([]*Summary, len(parts))
		for i, p := range parts {
			encs[i], _ = p.Encode()
			var err error
			if decoded[i], err = DecodeBinary(encs[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := MergeEncoded(period, encs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := Merge(period, decoded...)
		sameSummary(t, got, want)
		g, _ := got.Encode()
		w, _ := want.Encode()
		if !bytes.Equal(g, w) {
			t.Fatalf("trial %d: %d parts: the encodings differ", trial, len(parts))
		}
	}
}

// TestMergeEncodedRejectsBadPart: a part that does not decode fails the
// merge, wherever it stands in the list.
func TestMergeEncodedRejectsBadPart(t *testing.T) {
	good, _ := randomSummary(rand.New(rand.NewSource(1))).Encode()
	bad := good[:len(good)-1]
	for _, parts := range [][][]byte{{bad}, {good, bad}, {bad, good}} {
		if _, err := MergeEncoded(telco.TimeRange{}, parts); err == nil {
			t.Errorf("a %d-part merge with a cut-short part succeeded", len(parts))
		}
	}
}

// TestCheckBinaryAllocatesNothing: the check a coordinator runs on every
// shard part builds nothing, and returns the period the decoding has.
func TestCheckBinaryAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		s := randomSummary(rng)
		data, _ := s.Encode()
		var period telco.TimeRange
		var err error
		if n := testing.AllocsPerRun(10, func() { period, err = CheckBinary(data) }); n != 0 {
			t.Fatalf("trial %d: CheckBinary allocated %v times", trial, n)
		}
		if err != nil || period != s.Period {
			t.Fatalf("trial %d: CheckBinary = %v, %v; want %v", trial, period, err, s.Period)
		}
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
		s := NewSummary(telco.TimeRange{From: from, To: from.Add(24 * time.Hour)})
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
			cs := &CellStats{Rows: 40, Num: make(map[AttrRef]*Stats)}
			for _, ref := range cfg.CellAttrs {
				cs.Num[ref] = &Stats{NonNull: 40, Sum: rng.Float64(), SumSq: rng.Float64(), Min: -1, Max: rng.Float64(), PeakTime: from.Add(time.Duration(rng.Intn(86400)) * time.Second)}
			}
			s.Cells[1000+id*7] = cs
		}
		data, _ := s.Encode()
		parts = append(parts, data)
	}
	return parts
}

func BenchmarkCheckBinary(b *testing.B) {
	parts := benchParts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range parts {
			if _, err := CheckBinary(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMergeEncoded(b *testing.B) {
	parts := benchParts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MergeEncoded(telco.TimeRange{}, parts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeDecoded(b *testing.B) {
	parts := benchParts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var decoded []*Summary
		for _, p := range parts {
			s, err := DecodeBinary(p)
			if err != nil {
				b.Fatal(err)
			}
			decoded = append(decoded, s)
		}
		Merge(telco.TimeRange{}, decoded...)
	}
}
