package highlights

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spate/internal/telco"
)

var testSchema = telco.MustSchema("CDR", []telco.Field{
	{Name: "ts", Kind: telco.KindTime},
	{Name: "cell_id", Kind: telco.KindInt},
	{Name: "call_type", Kind: telco.KindString},
	{Name: "duration", Kind: telco.KindInt},
})

func testConfig() Config {
	return Config{
		Categorical: []AttrRef{{"CDR", "call_type"}},
		Numeric:     []AttrRef{{"CDR", "duration"}},
		CellAttrs:   []AttrRef{{"CDR", "duration"}},
	}
}

func mkTable(rows ...telco.Record) *telco.Table {
	t := telco.NewTable(testSchema)
	for _, r := range rows {
		t.Append(r)
	}
	return t
}

func rec(at time.Time, cell int64, typ string, dur int64) telco.Record {
	return telco.Record{telco.Time(at), telco.Int(cell), telco.String(typ), telco.Int(dur)}
}

var t0 = time.Date(2016, 1, 18, 0, 0, 0, 0, time.UTC)

func TestAddTableAggregates(t *testing.T) {
	s := NewSummary(telco.NewTimeRange(t0, t0.Add(time.Hour)))
	s.AddTable(testConfig(), mkTable(
		rec(t0, 1, "VOICE", 60),
		rec(t0.Add(time.Minute), 1, "VOICE", 120),
		rec(t0.Add(2*time.Minute), 2, "SMS", 0),
	))
	if s.Rows != 3 {
		t.Errorf("Rows = %d", s.Rows)
	}
	m := mapOf(s)
	dur := m.Num[AttrRef{"CDR", "duration"}]
	if dur == nil || dur.NonNull != 3 || dur.Sum != 180 || dur.Min != 0 || dur.Max != 120 {
		t.Errorf("duration stats = %+v", dur)
	}
	if got := dur.Mean(); got != 60 {
		t.Errorf("Mean = %v", got)
	}
	if dur.PeakTime != t0.Add(time.Minute) {
		t.Errorf("PeakTime = %v", dur.PeakTime)
	}
	ct := m.Cat[AttrRef{"CDR", "call_type"}]
	if ct["VOICE"].Count != 2 || ct["SMS"].Count != 1 {
		t.Errorf("cat counts = %+v", ct)
	}
	if len(m.Cells) != 2 || m.Cells[1].Rows != 2 || m.Cells[2].Rows != 1 {
		t.Errorf("cells = %+v", m.Cells)
	}
	if m.Cells[1].Num[AttrRef{"CDR", "duration"}].Sum != 180 {
		t.Errorf("cell 1 duration sum wrong")
	}
}

func TestNullsAreSkipped(t *testing.T) {
	s := NewSummary(telco.NewTimeRange(t0, t0.Add(time.Hour)))
	s.AddTable(testConfig(), mkTable(
		telco.Record{telco.Time(t0), telco.Null, telco.Null, telco.Null},
	))
	if s.Rows != 1 {
		t.Errorf("Rows = %d", s.Rows)
	}
	if st := mapOf(s).Num[AttrRef{"CDR", "duration"}]; st != nil && st.NonNull != 0 {
		t.Errorf("null duration counted: %+v", st)
	}
	if len(mapOf(s).Cells) != 0 {
		t.Error("null cell created an entry")
	}
}

// TestMergeEqualsDirect is the rollup correctness property the whole
// highlights cube rests on: merging child summaries must equal building
// one summary over the concatenated data.
func TestMergeEqualsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := []string{"VOICE", "SMS", "DATA", "MMS", "RARE"}
	mk := func(n int, base time.Time) *telco.Table {
		tab := telco.NewTable(testSchema)
		for i := 0; i < n; i++ {
			tab.Append(rec(
				base.Add(time.Duration(rng.Intn(3600))*time.Second),
				int64(rng.Intn(5)+1),
				types[rng.Intn(len(types))],
				int64(rng.Intn(600)),
			))
		}
		return tab
	}
	period := telco.NewTimeRange(t0, t0.Add(3*time.Hour))
	tables := []*telco.Table{mk(50, t0), mk(80, t0.Add(time.Hour)), mk(30, t0.Add(2*time.Hour))}

	var parts []*Summary
	for i, tab := range tables {
		p := NewSummary(telco.NewTimeRange(t0.Add(time.Duration(i)*time.Hour), t0.Add(time.Duration(i+1)*time.Hour)))
		p.AddTable(testConfig(), tab)
		parts = append(parts, p)
	}
	merged := mapOf(Merge(period, parts...))

	directSummary := NewSummary(period)
	for _, tab := range tables {
		directSummary.AddTable(testConfig(), tab)
	}
	direct := mapOf(directSummary)

	if merged.Rows != direct.Rows {
		t.Fatalf("Rows: merged %d, direct %d", merged.Rows, direct.Rows)
	}
	for ref, d := range direct.Num {
		m := merged.Num[ref]
		if m == nil {
			t.Fatalf("merged missing %v", ref)
		}
		if m.NonNull != d.NonNull || m.Min != d.Min || m.Max != d.Max ||
			math.Abs(m.Sum-d.Sum) > 1e-9 || math.Abs(m.SumSq-d.SumSq) > 1e-6 ||
			!m.PeakTime.Equal(d.PeakTime) {
			t.Errorf("%v: merged %+v != direct %+v", ref, m, d)
		}
	}
	for ref, dv := range direct.Cat {
		mv := merged.Cat[ref]
		if len(mv) != len(dv) {
			t.Fatalf("%v: %d values vs %d", ref, len(mv), len(dv))
		}
		for v, ds := range dv {
			ms := mv[v]
			if ms == nil || ms.Count != ds.Count || !ms.First.Equal(ds.First) || !ms.Last.Equal(ds.Last) {
				t.Errorf("%v=%q: merged %+v != direct %+v", ref, v, ms, ds)
			}
		}
	}
	if len(merged.Cells) != len(direct.Cells) {
		t.Fatalf("cells: %d vs %d", len(merged.Cells), len(direct.Cells))
	}
	for id, dc := range direct.Cells {
		mc := merged.Cells[id]
		if mc == nil || mc.Rows != dc.Rows {
			t.Errorf("cell %d rows mismatch", id)
		}
	}
}

func TestMergeIgnoresNil(t *testing.T) {
	p := NewSummary(telco.NewTimeRange(t0, t0.Add(time.Hour)))
	p.AddTable(testConfig(), mkTable(rec(t0, 1, "VOICE", 10)))
	m := Merge(p.Period, nil, p, nil)
	if m.Rows != 1 {
		t.Errorf("Rows = %d", m.Rows)
	}
}

func TestExtractCategoricalHighlights(t *testing.T) {
	s := NewSummary(telco.NewTimeRange(t0, t0.Add(time.Hour)))
	rows := make([]telco.Record, 0, 100)
	for i := 0; i < 97; i++ {
		rows = append(rows, rec(t0.Add(time.Duration(i)*time.Second), 1, "VOICE", 60))
	}
	// 3 rare EMERGENCY calls.
	for i := 0; i < 3; i++ {
		rows = append(rows, rec(t0.Add(time.Duration(30+i)*time.Minute), 2, "EMERGENCY", 60))
	}
	s.AddTable(testConfig(), mkTable(rows...))
	hs := s.Extract(0.10)
	var found *Highlight
	for i := range hs {
		if hs[i].Kind == Categorical && hs[i].Value == "EMERGENCY" {
			found = &hs[i]
		}
		if hs[i].Kind == Categorical && hs[i].Value == "VOICE" {
			t.Error("frequent value VOICE reported as highlight")
		}
	}
	if found == nil {
		t.Fatal("rare value EMERGENCY not reported")
	}
	if found.Count != 3 || found.Frequency != 0.03 {
		t.Errorf("highlight = %+v", found)
	}
	if !found.Start.Equal(t0.Add(30*time.Minute)) || !found.End.Equal(t0.Add(32*time.Minute)) {
		t.Errorf("duration = %v..%v", found.Start, found.End)
	}
	// With a tiny theta nothing is rare.
	if hs := s.Extract(0.001); len(extractCat(hs)) != 0 {
		t.Errorf("theta=0.001 still yields categorical highlights: %+v", hs)
	}
}

func extractCat(hs []Highlight) []Highlight {
	var out []Highlight
	for _, h := range hs {
		if h.Kind == Categorical {
			out = append(out, h)
		}
	}
	return out
}

func TestExtractPeakHighlights(t *testing.T) {
	s := NewSummary(telco.NewTimeRange(t0, t0.Add(time.Hour)))
	rows := make([]telco.Record, 0, 101)
	for i := 0; i < 100; i++ {
		rows = append(rows, rec(t0, 1, "VOICE", int64(60+i%5)))
	}
	peakAt := t0.Add(42 * time.Minute)
	rows = append(rows, rec(peakAt, 1, "VOICE", 100000))
	s.AddTable(testConfig(), mkTable(rows...))
	hs := s.Extract(0.0) // theta 0: no categorical highlights, peak only
	var peak *Highlight
	for i := range hs {
		if hs[i].Kind == Peak {
			peak = &hs[i]
		}
	}
	if peak == nil {
		t.Fatal("peak not detected")
	}
	if peak.PeakValue != 100000 || !peak.PeakTime.Equal(peakAt) {
		t.Errorf("peak = %+v", peak)
	}
	// Uniform data has no peaks.
	s2 := NewSummary(s.Period)
	s2.AddTable(testConfig(), mkTable(rec(t0, 1, "VOICE", 60), rec(t0, 1, "VOICE", 61)))
	for _, h := range s2.Extract(0) {
		if h.Kind == Peak {
			t.Error("uniform data produced a peak highlight")
		}
	}
}

func TestCatOverflowBucket(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCatValues = 4
	s := NewSummary(telco.NewTimeRange(t0, t0.Add(time.Hour)))
	tab := telco.NewTable(testSchema)
	for i := 0; i < 20; i++ {
		tab.Append(rec(t0, 1, string(rune('A'+i)), 1))
	}
	s.AddTable(cfg, tab)
	vals := mapOf(s).Cat[AttrRef{"CDR", "call_type"}]
	if len(vals) > 5 { // 4 tracked + overflow
		t.Errorf("tracked %d values, cap is 4+overflow", len(vals))
	}
	var total int64
	for _, vs := range vals {
		total += vs.Count
	}
	if total != 20 {
		t.Errorf("counts lost in overflow: %d", total)
	}
	// Overflow bucket must never be reported as a highlight value.
	for _, h := range s.Extract(0.9) {
		if h.Value == overflowValue {
			t.Error("overflow bucket surfaced as highlight")
		}
	}
}

func TestSizeHintGrowsWithContent(t *testing.T) {
	empty := NewSummary(telco.NewTimeRange(t0, t0.Add(time.Hour)))
	s := NewSummary(empty.Period)
	s.AddTable(testConfig(), mkTable(rec(t0, 1, "VOICE", 60), rec(t0, 2, "SMS", 30)))
	if s.SizeHint() <= empty.SizeHint() {
		t.Error("SizeHint did not grow with content")
	}
}

func TestStatsStdDev(t *testing.T) {
	var st Stats
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		st.add(v, t0)
	}
	if got := st.StdDev(); math.Abs(got-2) > 1e-9 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	var empty Stats
	if empty.StdDev() != 0 || empty.Mean() != 0 {
		t.Error("empty stats should be zero")
	}
}
