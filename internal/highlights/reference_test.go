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
	"testing"
	"time"

	"spate/internal/telco"
)

// refMerge is the in-memory Merge as it stood before every summary went
// through one accumulator, kept as the definition Merge and MergeEncoded
// must equal: verbatim, but for allocating its Stats and CellStats one by
// one where it carved them out of slabs.
func refMerge(period telco.TimeRange, parts ...*Summary) *Summary {
	// The result is at least as large as its largest part: size the maps for
	// that.
	var big *Summary
	for _, p := range parts {
		if p != nil && (big == nil || len(p.Cells) > len(big.Cells)) {
			big = p
		}
	}
	if big == nil {
		return NewSummary(period)
	}
	out := &Summary{
		Period: period,
		Num:    make(map[AttrRef]*Stats, len(big.Num)),
		Cat:    make(map[AttrRef]map[string]*ValStat, len(big.Cat)),
		Cells:  make(map[int64]*CellStats, len(big.Cells)),
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
			dst.merge(st)
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
				dst = new(CellStats)
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
				d.merge(st)
			}
		}
	}
	return out
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
// so the comparison still tells an empty map from a missing one. The
// memoized encoding is left out.
func bitsOf(s *Summary) *summaryBits {
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

// deepEqual is reflect.DeepEqual over summaries, floats compared by bits.
func deepEqual(a, b *Summary) bool { return reflect.DeepEqual(bitsOf(a), bitsOf(b)) }

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
// fold-built day parts, Merge and MergeEncoded both give the summary the
// reference merge gives — reflect.DeepEqual, floats by their bits — and
// encode to its bytes.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	period := telco.TimeRange{From: time.Unix(1453075200, 0).UTC(), To: time.Unix(1453161600, 0).UTC()}
	check := func(what string, parts []*Summary) {
		t.Helper()
		want := refMerge(period, parts...)
		got := Merge(period, parts...)
		if !deepEqual(got, want) {
			t.Fatalf("%s: Merge differs from the reference merge", what)
		}
		encs := make([][]byte, 0, len(parts))
		for _, p := range parts {
			if p != nil {
				data, _ := p.Encode()
				encs = append(encs, data)
			}
		}
		fromEnc, err := MergeEncoded(period, encs)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !deepEqual(fromEnc, want) {
			t.Fatalf("%s: MergeEncoded differs from the reference merge", what)
		}
		w, _ := want.Encode()
		for name, s := range map[string]*Summary{"Merge": got, "MergeEncoded": fromEnc} {
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

// goldenDigest is the sha256 of goldenEncodings: what Merge, MergeEncoded,
// the fold (Folder and AddTable) and DecodeBinary build from fixed seeds,
// and what the legacy gob fixture decodes to, each as its encoding.
const goldenDigest = "37776fe8221ebb41b6c9bdc9ec2cbbe9a705aec87391cafbccc6e4bbec3375be"

func goldenEncodings(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	add := func(s *Summary) {
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	rng := rand.New(rand.NewSource(2016))
	period := telco.NewTimeRange(t0, t0.Add(7*24*time.Hour))
	for trial := 0; trial < 12; trial++ {
		parts := foldedDays(rng)
		encs := make([][]byte, len(parts))
		for i, p := range parts {
			add(p)
			encs[i] = out[len(out)-1]
		}
		add(Merge(period, parts...))
		merged, err := MergeEncoded(period, encs)
		if err != nil {
			t.Fatal(err)
		}
		add(merged)
	}
	for trial := 0; trial < 40; trial++ {
		add(Merge(period, randomParts(rng)...))
	}
	for trial := 0; trial < 40; trial++ {
		data, _ := randomSummary(rng).Encode()
		s, err := DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		add(s)
	}
	legacy, err := Decode(legacyGob(t))
	if err != nil {
		t.Fatal(err)
	}
	add(legacy)
	return out
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
	h := sha256.New()
	for _, data := range goldenEncodings(t) {
		h.Write(binary.AppendUvarint(nil, uint64(len(data))))
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Errorf("digest %s, want %s", got, goldenDigest)
	}
}
