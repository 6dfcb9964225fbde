package highlights

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"spate/internal/telco"
)

// mapSummary is a summary in the map shape Summary had before it became
// flat, kept as the form the reference algorithms (refMerge, rowFold) work
// in and the tests compare in: every map is present, even when empty, and
// every entry is its own copy.
type mapSummary struct {
	Period telco.TimeRange
	Rows   int64
	Num    map[AttrRef]*Stats
	Cat    map[AttrRef]map[string]*ValStat
	Cells  map[int64]*mapCell
}

// mapCell is one cell of a mapSummary.
type mapCell struct {
	Rows int64
	Num  map[AttrRef]*Stats
}

func newMapSummary(period telco.TimeRange) *mapSummary {
	return &mapSummary{
		Period: period,
		Num:    make(map[AttrRef]*Stats),
		Cat:    make(map[AttrRef]map[string]*ValStat),
		Cells:  make(map[int64]*mapCell),
	}
}

// mapOf mirrors s in the map shape (nil for nil), after checking the
// flat form's invariants: runs that tile their arrays, and attributes,
// values, cell ids and each cell's attributes strictly ascending.
func mapOf(s *Summary) *mapSummary {
	if s == nil {
		return nil
	}
	ascending := func(n int, less func(i int) bool) bool {
		for i := 1; i < n; i++ {
			if !less(i) {
				return false
			}
		}
		return true
	}
	runs := func(p []pair) bool { return ascending(len(p), func(i int) bool { return p[i-1].attr < p[i].attr }) }
	ok := ascending(len(s.attrs), func(i int) bool { return compareRefs(s.attrs[i-1], s.attrs[i]) < 0 }) &&
		runs(s.num) && ascending(len(s.cat), func(i int) bool { return s.cat[i-1].attr < s.cat[i].attr }) &&
		ascending(len(s.cells), func(i int) bool { return s.cells[i-1].id < s.cells[i].id })
	lo := int32(0)
	for _, t := range s.cat {
		vals := s.vals[t.lo:t.hi]
		ok = ok && t.lo == lo && ascending(len(vals), func(i int) bool { return vals[i-1].v < vals[i].v })
		lo = t.hi
	}
	ok = ok && int(lo) == len(s.vals)
	lo = 0
	for _, c := range s.cells {
		ok = ok && c.lo == lo && runs(s.pairs[c.lo:c.hi])
		lo = c.hi
	}
	if !ok || int(lo) != len(s.pairs) {
		panic("highlights: a summary breaks the flat form's invariants")
	}

	m := newMapSummary(s.Period)
	m.Rows = s.Rows
	for i := 0; i < s.Num().Len(); i++ {
		ref, st := s.Num().At(i)
		m.Num[ref] = &st
	}
	for _, t := range s.cat {
		mv := make(map[string]*ValStat, t.hi-t.lo)
		for _, v := range s.vals[t.lo:t.hi] {
			mv[v.v] = &ValStat{Count: v.count, First: v.first.time(), Last: v.last.time()}
		}
		m.Cat[s.attrs[t.attr]] = mv
	}
	for i := 0; i < s.Cells(); i++ {
		id, rows, num := s.Cell(i)
		mc := &mapCell{Rows: rows, Num: make(map[AttrRef]*Stats, num.Len())}
		for j := 0; j < num.Len(); j++ {
			ref, st := num.At(j)
			mc.Num[ref] = &st
		}
		m.Cells[id] = mc
	}
	return m
}

// mapsOf is mapOf over a part list, nil parts staying nil.
func mapsOf(parts []*Summary) []*mapSummary {
	out := make([]*mapSummary, len(parts))
	for i, p := range parts {
		out[i] = mapOf(p)
	}
	return out
}

// summary is the Summary m mirrors, laid out flat here rather than by the
// package's own writer.
func (m *mapSummary) summary() *Summary {
	s := &Summary{Period: m.Period, Rows: m.Rows}
	ords := map[AttrRef]int32{}
	for ref := range m.Num {
		ords[ref] = 0
	}
	for ref := range m.Cat {
		ords[ref] = 0
	}
	ids := make([]int64, 0, len(m.Cells))
	for id, mc := range m.Cells {
		ids = append(ids, id)
		for ref := range mc.Num {
			ords[ref] = 0
		}
	}
	for ref := range ords {
		s.attrs = append(s.attrs, ref)
	}
	slices.SortFunc(s.attrs, compareRefs)
	slices.Sort(ids)
	for i, ref := range s.attrs {
		ords[ref] = int32(i)
	}
	flat := func(st *Stats) stat {
		return stat{st.NonNull, st.Sum, st.SumSq, st.Min, st.Max, stampAt(st.PeakTime)}
	}
	run := func(dst []pair, num map[AttrRef]*Stats) []pair {
		for _, ref := range s.attrs {
			if st, ok := num[ref]; ok {
				dst = append(dst, pair{ords[ref], flat(st)})
			}
		}
		return dst
	}
	s.num = run(nil, m.Num)
	for _, ref := range s.attrs {
		vals, ok := m.Cat[ref]
		if !ok {
			continue
		}
		t := table{attr: ords[ref], lo: int32(len(s.vals))}
		for v, vs := range vals {
			s.vals = append(s.vals, value{v, vs.Count, stampAt(vs.First), stampAt(vs.Last)})
		}
		slices.SortFunc(s.vals[t.lo:], func(x, y value) int { return strings.Compare(x.v, y.v) })
		t.hi = int32(len(s.vals))
		s.cat = append(s.cat, t)
	}
	for _, id := range ids {
		mc := m.Cells[id]
		c := cell{id: id, rows: mc.Rows, lo: int32(len(s.pairs))}
		s.pairs = run(s.pairs, mc.Num)
		c.hi = int32(len(s.pairs))
		s.cells = append(s.cells, c)
	}
	return s
}

// refMerge is the in-memory Merge as it stood before every summary went
// through one accumulator, kept as the definition Merge must equal, over
// parts as built and as decoded from their encodings: verbatim over the map shape, but for allocating its Stats and
// cells one by one where it carved them out of slabs.
func refMerge(period telco.TimeRange, parts ...*mapSummary) *mapSummary {
	// The result is at least as large as its largest part: size the maps for
	// that.
	var big *mapSummary
	for _, p := range parts {
		if p != nil && (big == nil || len(p.Cells) > len(big.Cells)) {
			big = p
		}
	}
	if big == nil {
		return newMapSummary(period)
	}
	out := &mapSummary{
		Period: period,
		Num:    make(map[AttrRef]*Stats, len(big.Num)),
		Cat:    make(map[AttrRef]map[string]*ValStat, len(big.Cat)),
		Cells:  make(map[int64]*mapCell, len(big.Cells)),
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Rows += p.Rows
		for ref, st := range p.Num {
			dst := out.Num[ref]
			if dst == nil {
				dst = new(Stats)
				out.Num[ref] = dst
			}
			dst.mergeRef(st)
		}
		for ref, vals := range p.Cat {
			dst := out.Cat[ref]
			if dst == nil {
				dst = make(map[string]*ValStat, len(vals))
				out.Cat[ref] = dst
			}
			for v, vs := range vals {
				d := dst[v]
				if d == nil {
					d = &ValStat{}
					dst[v] = d
				}
				d.mergeRef(vs)
			}
		}
		for id, cs := range p.Cells {
			dst := out.Cells[id]
			if dst == nil {
				dst = new(mapCell)
				dst.Num = make(map[AttrRef]*Stats, len(cs.Num))
				out.Cells[id] = dst
			}
			dst.Rows += cs.Rows
			for ref, st := range cs.Num {
				d := dst.Num[ref]
				if d == nil {
					d = new(Stats)
					dst.Num[ref] = d
				}
				d.mergeRef(st)
			}
		}
	}
	return out
}

// mergeRef is the merge of Stats refMerge made (exact, commutative).
func (s *Stats) mergeRef(o *Stats) {
	if o.NonNull == 0 {
		return
	}
	if s.NonNull == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.NonNull == 0 || o.Max > s.Max {
		s.Max = o.Max
		s.PeakTime = o.PeakTime
	}
	s.NonNull += o.NonNull
	s.Sum = addFloat(s.Sum, o.Sum)
	s.SumSq = addFloat(s.SumSq, o.SumSq)
}

// mergeRef is the merge of ValStats refMerge made.
func (v *ValStat) mergeRef(o *ValStat) {
	if o.Count == 0 {
		return
	}
	if v.Count == 0 || o.First.Before(v.First) {
		v.First = o.First
	}
	if v.Count == 0 || o.Last.After(v.Last) {
		v.Last = o.Last
	}
	v.Count += o.Count
}

// statBits is a Stats with its floats as their bits.
type statBits struct {
	NonNull              int64
	Sum, SumSq, Min, Max uint64
	PeakTime             time.Time
}

type cellBits struct {
	Rows int64
	Num  map[AttrRef]*statBits
}

type summaryBits struct {
	Period telco.TimeRange
	Rows   int64
	Num    map[AttrRef]*statBits
	Cat    map[AttrRef]map[string]*ValStat
	Cells  map[int64]*cellBits
}

// bitsOf mirrors a summary for reflect.DeepEqual, which finds a NaN unequal
// to itself: floats become their bits, and nil maps and pointers stay nil,
// so the comparison still tells an empty map from a missing one.
func bitsOf(s *mapSummary) *summaryBits {
	if s == nil {
		return nil
	}
	stats := func(m map[AttrRef]*Stats) map[AttrRef]*statBits {
		if m == nil {
			return nil
		}
		out := make(map[AttrRef]*statBits, len(m))
		for ref, st := range m {
			if st == nil {
				out[ref] = nil
				continue
			}
			out[ref] = &statBits{st.NonNull, math.Float64bits(st.Sum), math.Float64bits(st.SumSq),
				math.Float64bits(st.Min), math.Float64bits(st.Max), st.PeakTime}
		}
		return out
	}
	out := &summaryBits{Period: s.Period, Rows: s.Rows, Num: stats(s.Num), Cat: s.Cat}
	if s.Cells != nil {
		out.Cells = make(map[int64]*cellBits, len(s.Cells))
		for id, cs := range s.Cells {
			if cs == nil {
				out.Cells[id] = nil
				continue
			}
			out.Cells[id] = &cellBits{Rows: cs.Rows, Num: stats(cs.Num)}
		}
	}
	return out
}

// deepEqual is reflect.DeepEqual over summaries in the map shape, floats
// compared by bits.
func deepEqual(a, b *mapSummary) bool { return reflect.DeepEqual(bitsOf(a), bitsOf(b)) }

// foldedDays draws day-like parts the way ingest builds them: tables folded
// into summaries through AddTable and through batches, some of them folded
// into a summary that already holds another table's fold.
func foldedDays(rng *rand.Rand) []*Summary {
	parts := make([]*Summary, 1+rng.Intn(4))
	cfg := foldConfig([]int{0, 5}[rng.Intn(2)])
	for i := range parts {
		from := t0.Add(time.Duration(i) * 24 * time.Hour)
		s := NewSummary(telco.NewTimeRange(from, from.Add(24*time.Hour)))
		s.AddTable(cfg, foldTable(rng, rng.Intn(200)))
		if rng.Intn(2) == 0 {
			tab := foldTable(rng, 1+rng.Intn(200))
			var b telco.Batch
			b.SetRows(foldSchema, nil, tab.Rows, true)
			f := NewFolder(s, cfg, foldSchema)
			f.Add(&b)
			f.Flush()
		}
		parts[i] = s
	}
	return parts
}

// TestMergeMatchesReference: over seeded random part lists and over
// fold-built day parts, Merge of the parts and Merge of their decoded
// encodings both give the summary the reference merge gives — reflect.DeepEqual, floats by their bits — and
// encode to its bytes.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	period := telco.TimeRange{From: time.Unix(1453075200, 0).UTC(), To: time.Unix(1453161600, 0).UTC()}
	check := func(what string, parts []*Summary) {
		t.Helper()
		want := refMerge(period, mapsOf(parts)...)
		got := Merge(period, parts...)
		if !deepEqual(mapOf(got), want) {
			t.Fatalf("%s: Merge differs from the reference merge", what)
		}
		encs := make([][]byte, 0, len(parts))
		for _, p := range parts {
			if p != nil {
				data, _ := p.Encode()
				encs = append(encs, data)
			}
		}
		fromEnc, err := mergeEncoded(period, encs)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !deepEqual(mapOf(fromEnc), want) {
			t.Fatalf("%s: Merge∘DecodeBinary differs from the reference merge", what)
		}
		w, _ := want.summary().Encode()
		for name, s := range map[string]*Summary{"Merge": got, "Merge∘DecodeBinary": fromEnc} {
			if g, _ := s.Encode(); !bytes.Equal(g, w) {
				t.Fatalf("%s: %s encodes unlike the reference merge", what, name)
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		check("random parts", randomParts(rng))
	}
	for trial := 0; trial < 60; trial++ {
		parts := foldedDays(rng)
		if trial%3 == 0 {
			parts = append(parts, nil)
		}
		check("folded days", parts)
	}
	check("no parts", nil)
}

// goldenDigest is the sha256 of the version 1 encodings of
// goldenSummaries: what Merge (of parts as built and of their decoded
// encodings), the fold (Folder and AddTable) and DecodeBinary build from
// fixed seeds, and what the legacy gob fixture decodes to. goldenDigestV2 is
// the sha256 of their version 2 encodings.
const (
	goldenDigest   = "37776fe8221ebb41b6c9bdc9ec2cbbe9a705aec87391cafbccc6e4bbec3375be"
	goldenDigestV2 = "57fb9272f7a62a1989026dfb8a06c7fad788e8d2428a4ac97c75063f6a75b864"
)

func goldenSummaries(t *testing.T) []*Summary {
	t.Helper()
	var out []*Summary
	encode := func(s *Summary) []byte {
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	rng := rand.New(rand.NewSource(2016))
	period := telco.NewTimeRange(t0, t0.Add(7*24*time.Hour))
	for trial := 0; trial < 12; trial++ {
		parts := foldedDays(rng)
		encs := make([][]byte, len(parts))
		for i, p := range parts {
			out = append(out, p)
			encs[i] = encode(p)
		}
		out = append(out, Merge(period, parts...))
		merged, err := mergeEncoded(period, encs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, merged)
	}
	for trial := 0; trial < 40; trial++ {
		out = append(out, Merge(period, randomParts(rng)...))
	}
	for trial := 0; trial < 40; trial++ {
		s, err := DecodeBinary(encode(randomSummary(rng)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	legacy, err := Decode(legacyGob(t))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, legacy)
}

// TestGoldenDigest pins the bytes of what the package builds, so a change
// that moves every producer at once — which no comparison between them can
// catch — still shows. The digest is pinned for amd64: elsewhere a NaN the
// arithmetic makes may carry another payload, and the fold's sum + v*v may
// be fused into one multiply-add.
func TestGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest is pinned for amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	summaries := goldenSummaries(t)
	for _, c := range []struct {
		version int
		encode  func(*Summary) []byte
		want    string
	}{
		{1, encodeV1, goldenDigest},
		{2, func(s *Summary) []byte { data, _ := s.Encode(); return data }, goldenDigestV2},
	} {
		h := sha256.New()
		for _, s := range summaries {
			data := c.encode(s)
			h.Write(binary.AppendUvarint(nil, uint64(len(data))))
			h.Write(data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("version %d: digest %s, want %s", c.version, got, c.want)
		}
	}
}

// TestDecodeVersionsAgree: each golden summary's version 1 and version 2
// encodings decode to the same summary, which encodes to the version 2
// bytes.
func TestDecodeVersionsAgree(t *testing.T) {
	for i, s := range goldenSummaries(t) {
		v2, _ := s.Encode()
		from1, err := Decode(encodeV1(s))
		if err != nil {
			t.Fatalf("summary %d, version 1: %v", i, err)
		}
		from2, err := Decode(v2)
		if err != nil {
			t.Fatalf("summary %d, version 2: %v", i, err)
		}
		sameSummary(t, from1, from2)
		if got, _ := from1.Encode(); !bytes.Equal(got, v2) {
			t.Fatalf("summary %d: its version 1 decoding encodes unlike its version 2 bytes", i)
		}
	}
}
