package highlights

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"spate/internal/gen"
	"spate/internal/telco"
)

// add and ValStat's add are the row fold's accumulation steps, which the
// cube's add and merge reproduce.
func (s *Stats) add(v float64, at time.Time) {
	if s.NonNull == 0 || v < s.Min {
		s.Min = v
	}
	if s.NonNull == 0 || v > s.Max {
		s.Max = v
		s.PeakTime = at
	}
	s.NonNull++
	s.Sum += v
	s.SumSq += v * v
}

func (v *ValStat) add(at time.Time) {
	if v.Count == 0 || at.Before(v.First) {
		v.First = at
	}
	if v.Count == 0 || at.After(v.Last) {
		v.Last = at
	}
	v.Count++
}

// rowFold is the row-at-a-time fold AddTable ran before the batch fold
// replaced it, kept verbatim over the map shape as the definition the batch
// fold must equal.
func rowFold(s *mapSummary, cfg Config, t *telco.Table) {
	cfg = cfg.withDefaults()
	tsIdx := t.Schema.FieldIndex(telco.AttrTS)
	cellIdx := t.Schema.FieldIndex(telco.AttrCellID)
	type numCol struct {
		ref     AttrRef
		idx     int
		perCell bool
	}
	var numCols, catCols []numCol
	perCell := make(map[AttrRef]bool, len(cfg.CellAttrs))
	for _, ref := range cfg.CellAttrs {
		perCell[ref] = true
	}
	for _, ref := range cfg.Numeric {
		if ref.Table == t.Schema.Name {
			if i := t.Schema.FieldIndex(ref.Attr); i >= 0 {
				numCols = append(numCols, numCol{ref, i, perCell[ref]})
			}
		}
	}
	for _, ref := range cfg.Categorical {
		if ref.Table == t.Schema.Name {
			if i := t.Schema.FieldIndex(ref.Attr); i >= 0 {
				catCols = append(catCols, numCol{ref, i, false})
			}
		}
	}
	for _, row := range t.Rows {
		s.Rows++
		var at time.Time
		if tsIdx >= 0 && !row[tsIdx].IsNull() {
			at = row[tsIdx].Time()
		}
		var cell *mapCell
		if cellIdx >= 0 && !row[cellIdx].IsNull() {
			id := row[cellIdx].Int64()
			cell = s.Cells[id]
			if cell == nil {
				cell = &mapCell{Num: make(map[AttrRef]*Stats)}
				s.Cells[id] = cell
			}
			cell.Rows++
		}
		for _, c := range numCols {
			v := row[c.idx]
			if v.IsNull() {
				continue
			}
			f := v.Float64()
			st := s.Num[c.ref]
			if st == nil {
				st = &Stats{}
				s.Num[c.ref] = st
			}
			st.add(f, at)
			if cell != nil && c.perCell {
				cst := cell.Num[c.ref]
				if cst == nil {
					cst = &Stats{}
					cell.Num[c.ref] = cst
				}
				cst.add(f, at)
			}
		}
		for _, c := range catCols {
			v := row[c.idx]
			if v.IsNull() {
				continue
			}
			vals := s.Cat[c.ref]
			if vals == nil {
				vals = make(map[string]*ValStat)
				s.Cat[c.ref] = vals
			}
			key := v.Format()
			vs := vals[key]
			if vs == nil {
				if len(vals) >= cfg.MaxCatValues {
					key = overflowValue
					vs = vals[key]
				}
				if vs == nil {
					vs = &ValStat{}
					vals[key] = vs
				}
			}
			vs.add(at)
		}
	}
}

var foldSchema = telco.MustSchema("T", []telco.Field{
	{Name: "pad", Kind: telco.KindString},
	{Name: "ts", Kind: telco.KindTime},
	{Name: "cell_id", Kind: telco.KindInt},
	{Name: "kind", Kind: telco.KindString},
	{Name: "code", Kind: telco.KindInt},
	{Name: "bytes", Kind: telco.KindInt},
	{Name: "ratio", Kind: telco.KindFloat},
	{Name: "label", Kind: telco.KindString},
})

func foldConfig(maxCat int) Config {
	return Config{
		// "code" is a categorical over an integer column, "label" a numeric
		// over a string one: both fold by the value's generic reading.
		Categorical:  []AttrRef{{"T", "kind"}, {"T", "code"}, {"T", "absent"}},
		Numeric:      []AttrRef{{"T", "bytes"}, {"T", "ratio"}, {"T", "label"}, {"U", "bytes"}},
		CellAttrs:    []AttrRef{{"T", "ratio"}, {"T", "bytes"}},
		MaxCatValues: maxCat,
	}
}

// foldTable draws rows with everything the fold has a rule for: rows
// without a timestamp or a cell id, null values, floats whose sums depend on
// the order of addition, repeated maxima (so PeakTime shows the first), and
// more categorical values than MaxCatValues admits.
func foldTable(rng *rand.Rand, n int) *telco.Table {
	tab := telco.NewTable(foldSchema)
	base := time.Date(2016, 1, 18, 9, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		null := func(v telco.Value, oneIn int) telco.Value {
			if rng.Intn(oneIn) == 0 {
				return telco.Null
			}
			return v
		}
		tab.Append(telco.Record{
			telco.String("x"),
			null(telco.Time(base.Add(time.Duration(rng.Intn(1800))*time.Second)), 9),
			null(telco.Int(int64(rng.Intn(40))), 7),
			null(telco.String(fmt.Sprintf("k%02d", rng.Intn(12))), 5),
			null(telco.Int(int64(rng.Intn(9))), 4),
			null(telco.Int(int64(rng.Intn(50))), 6),
			null(telco.Float(rng.NormFloat64()*1e6+0.1), 6),
			null(telco.String("text"), 3),
		})
	}
	return tab
}

// dictCode rewrites a batch's string columns the way a dictionary-coded
// stream decodes: distinct entries once, one code per row.
func dictCode(b *telco.Batch) {
	for k := range b.Cols {
		c := &b.Cols[k]
		if c.Kind != telco.KindString {
			continue
		}
		var arena []byte
		var starts, ends, codes []uint32
		seen := map[string]uint32{}
		for i := 0; i < b.N; i++ {
			key := string(c.Bytes(i))
			e, ok := seen[key]
			if !ok {
				e = uint32(len(starts))
				seen[key] = e
				starts = append(starts, uint32(len(arena)))
				arena = append(arena, key...)
				ends = append(ends, uint32(len(arena)))
			}
			codes = append(codes, e)
		}
		c.Arena, c.Starts, c.Ends, c.Codes = arena, starts, ends, codes
	}
}

// TestBatchFoldParity is the fold's contract: over seeded tables cut
// into 1, 3 and 17 batches — plain and dictionary-coded — folded into a
// fresh summary and into one that already holds another table's fold, the
// Summary the batch fold writes is, in the map shape, reflect.DeepEqual to
// the row fold's: every float, PeakTime, the overflow bucket at
// MaxCatValues, rows without timestamps or cells.
func TestBatchFoldParity(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	period := telco.NewTimeRange(t0, t0.Add(time.Hour))
	for trial := 0; trial < 20; trial++ {
		first, second := foldTable(rng, rng.Intn(300)), foldTable(rng, 1+rng.Intn(700))
		for _, maxCat := range []int{0, 5} {
			cfg := foldConfig(maxCat)
			want := newMapSummary(period)
			rowFold(want, cfg, first)
			rowFold(want, cfg, second)

			viaAddTable := NewSummary(period)
			viaAddTable.AddTable(cfg, first)
			viaAddTable.AddTable(cfg, second)
			if !reflect.DeepEqual(mapOf(viaAddTable), want) {
				t.Fatalf("trial %d maxCat %d: AddTable differs from the row fold", trial, maxCat)
			}

			for _, cuts := range []int{1, 3, 17} {
				for _, coded := range []bool{false, true} {
					base := newMapSummary(period)
					rowFold(base, cfg, first)
					got := base.summary()
					f := NewFolder(got, cfg, foldSchema)
					var b telco.Batch
					rows := second.Rows
					for c := 0; c < cuts; c++ {
						lo, hi := c*len(rows)/cuts, (c+1)*len(rows)/cuts
						b.SetRows(foldSchema, nil, rows[lo:hi], true)
						if coded {
							dictCode(&b)
						}
						f.Add(&b)
					}
					f.Flush()
					if !reflect.DeepEqual(mapOf(got), want) {
						t.Fatalf("trial %d maxCat %d: %d batches (dictionary-coded %v) differ from the row fold",
							trial, maxCat, cuts, coded)
					}
				}
			}
		}
	}
}

// TestFolderReuse: a folder Reset onto another summary carries nothing over.
func TestFolderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	period := telco.NewTimeRange(t0, t0.Add(time.Hour))
	cfg := foldConfig(0)
	f := new(Folder)
	for i := 0; i < 4; i++ {
		tab := foldTable(rng, 200)
		want, got := newMapSummary(period), NewSummary(period)
		rowFold(want, cfg, tab)
		var b telco.Batch
		b.SetRows(foldSchema, nil, tab.Rows, true)
		f.Reset(got, cfg, foldSchema)
		f.Add(&b)
		f.Flush()
		if !reflect.DeepEqual(mapOf(got), want) {
			t.Fatalf("round %d: a reused folder's summary differs from the row fold", i)
		}
	}
}

// BenchmarkFold folds a paper-shaped epoch — its CDR and NMS tables, as
// batches of every column — into a fresh summary through one reused folder,
// as a leaf rebuild does.
func BenchmarkFold(b *testing.B) {
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas, cfg.Users, cfg.CDRPerEpoch, cfg.NMSReportsPerCell = 100, 3000, 1500, 17
	g := gen.New(cfg)
	ep := telco.EpochOf(cfg.Start.Add(12 * time.Hour))
	tables := []*telco.Table{g.CDRTable(ep), g.NMSTable(ep)}
	batches := make([]telco.Batch, len(tables))
	for i, t := range tables {
		batches[i].SetRows(t.Schema, nil, t.Rows, true)
	}
	hl := DefaultConfig()
	f := new(Folder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSummary(telco.TimeRange{From: ep.Start(), To: ep.End()})
		for k, t := range tables {
			f.Reset(s, hl, t.Schema)
			f.Add(&batches[k])
			f.Flush()
		}
	}
}

// BenchmarkRestrict restricts a 3-leaf merge — three paper-shaped epochs
// folded as leaf rebuilds fold them — to a tenth of its cells, the spatial
// step of a boxed exploration.
func BenchmarkRestrict(b *testing.B) {
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas, cfg.Users, cfg.CDRPerEpoch, cfg.NMSReportsPerCell = 100, 3000, 1500, 17
	g := gen.New(cfg)
	hl := DefaultConfig()
	var leaves []*Summary
	for i := 0; i < 3; i++ {
		ep := telco.EpochOf(cfg.Start.Add(12*time.Hour + time.Duration(i)*telco.EpochDuration))
		s := NewSummary(telco.TimeRange{From: ep.Start(), To: ep.End()})
		s.AddTable(hl, g.CDRTable(ep))
		s.AddTable(hl, g.NMSTable(ep))
		leaves = append(leaves, s)
	}
	merged := Merge(telco.NewTimeRange(leaves[0].Period.From, leaves[2].Period.To), leaves...)
	keep := func(id int64) bool { return id%10 == 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restricted = merged.Restrict(keep)
	}
}

// restricted keeps BenchmarkRestrict's result, so the call is not elided.
var restricted *Summary
