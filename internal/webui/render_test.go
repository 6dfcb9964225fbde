package webui

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/sqlengine"
	"spate/internal/telco"
)

// The oracle: the bodies as /api/explore and /api/sql wrote them through
// encoding/json before they were rendered by hand.

func cellsJSON(cells []core.CellSeries, attr string) []ExploreCellJSON {
	var out []ExploreCellJSON
	for _, cs := range cells {
		cj := ExploreCellJSON{ID: cs.CellID, X: cs.Loc.X, Y: cs.Loc.Y, Rows: cs.Rows}
		shown := ""
		for i := 0; i < cs.Attr.Len(); i++ {
			ref, st := cs.Attr.At(i)
			if attr != "" {
				if ref.String() == attr {
					cj.Value = st.Sum
					break
				}
			} else if name := ref.String(); shown == "" || name < shown {
				shown, cj.Value = name, st.Sum
			}
		}
		out = append(out, cj)
	}
	return out
}

func highlightsJSON(hs []highlights.Highlight) []HighlightJSON {
	var out []HighlightJSON
	for _, h := range hs {
		hj := HighlightJSON{Attr: h.Attr.String(), Value: h.Value, Freq: h.Frequency, Peak: h.PeakValue}
		if h.Kind == highlights.Categorical {
			hj.Kind = "categorical"
		} else {
			hj.Kind = "peak"
		}
		out = append(out, hj)
	}
	return out
}

func encodeExplore(t *testing.T, x exploration, attr string, profile bool) []byte {
	t.Helper()
	out := ExploreJSON{
		Level: x.level, Rows: x.Summary.Rows, Decayed: x.DecayedLeaves, CacheHit: x.CacheHit,
		Cells:      cellsJSON(x.Cells, attr),
		Highlights: highlightsJSON(x.Highlights),
		Partial:    x.partial, ShardsQueried: x.shardsQueried, ShardsFailed: x.shardsFailed,
		HedgeWins: x.hedgeWins, Retries: x.retries,
		TraceID: x.Profile.TraceID,
	}
	if profile {
		out.Profile = &x.Profile
	}
	for _, st := range x.Stages {
		if out.Stages == nil {
			out.Stages = make(map[string]float64, len(x.Stages))
		}
		out.Stages[st.Name] = float64(st.Duration) / float64(time.Millisecond)
	}
	for _, m := range x.missing {
		out.Missing = append(out.Missing, WindowJSON{
			From: m.From.Format(telco.TimeLayout),
			To:   m.To.Format(telco.TimeLayout),
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeSQL(t *testing.T, rs *sqlengine.ResultSet) []byte {
	t.Helper()
	rows := make([][]string, len(rs.Rows))
	for i, row := range rs.Rows {
		rows[i] = make([]string, len(row))
		for j, v := range row {
			rows[i][j] = v.Format()
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"cols": rs.Cols, "rows": rows}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeTemplate is /api/template's body as the handler wrote it through
// encoding/json; it fails on a non-finite value.
func encodeTemplate(name string, spec templateSpec, cells []core.CellSeries) ([]byte, error) {
	out := struct {
		Template string            `json:"template"`
		Desc     string            `json:"desc"`
		Stat     string            `json:"stat"`
		Cells    []ExploreCellJSON `json:"cells"`
	}{Template: name, Desc: spec.desc, Stat: spec.stat}
	for _, cs := range cells {
		st, ok := statsOf(cs.Attr, spec.attr)
		if !ok {
			continue
		}
		v := st.Sum
		if spec.stat == "mean" {
			v = st.Mean()
		}
		out.Cells = append(out.Cells, ExploreCellJSON{
			ID: cs.CellID, X: cs.Loc.X, Y: cs.Loc.Y, Rows: cs.Rows, Value: v,
		})
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(out)
	return buf.Bytes(), err
}

// statsOf is ref's stats in a, the first the view holds.
func statsOf(a highlights.Attrs, ref highlights.AttrRef) (highlights.Stats, bool) {
	for i := 0; i < a.Len(); i++ {
		if r, st := a.At(i); r == ref {
			return st, true
		}
	}
	return highlights.Stats{}, false
}

// floatEdges are where appendFloat's choices turn: -0, both sides of the
// 'e' thresholds, and integral values either side of 2^53.
var floatEdges = []float64{
	0, math.Copysign(0, -1), 5e-7, 1e-7, 1e-6, 1e21, 9.999e20, 1e22, -1e21,
	1<<53 - 2, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 + 2), 1 << 60, -(1 << 60),
	0.1, -2.5, 123456.789, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// stringEdges are what appendString escapes: '"' and '\\', control
// characters, '<', '>' and '&', invalid UTF-8 (a stray byte, a cut
// sequence) and U+2028/U+2029 — beside plain ASCII and valid multi-byte
// text.
var stringEdges = []string{
	"", "plain", "<script>", "a&b>c", "\u2028", "\u2029", "\xff", "\xe2\x80", "\xed\xa0\x80",
	"q\"b\\s", "\x00\x01\x1f\x7f", "\b\f\n\r\t", "é", "日本", "\U0001F600", "\ufffd",
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return floatEdges[rng.Intn(len(floatEdges))]
	case 1:
		return float64(rng.Int63n(1<<40) - 1<<39)
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		sb.WriteString(stringEdges[rng.Intn(len(stringEdges))])
	}
	return sb.String()
}

// randInventory places cells 1 to 40 at locations drawn from floatEdges
// and friends, -0 among them: a sum from 0 turns -0 into 0, so only a
// location carries it into an answer.
func randInventory(rng *rand.Rand) map[int64]geo.Point {
	inv := make(map[int64]geo.Point, 40)
	for id := int64(1); id <= 40; id++ {
		inv[id] = geo.Point{X: randFloat(rng), Y: randFloat(rng)}
	}
	return inv
}

// cellRefs are the attributes randCells tracks per cell.
var cellRefs = []highlights.AttrRef{
	{Table: "CDR", Attr: telco.AttrUpflux}, {Table: "NMS", Attr: "rssi_dbm"},
	{Table: "NMS", Attr: "avg_duration"}, {Table: "NMS", Attr: "drop_calls"},
}

// randCells builds a summary tracking cellRefs whose per-cell sums are
// drawn from floatEdges and friends (a cell mostly gets one row per table,
// so its sum is the value drawn) and views its cells as an answer would,
// each at its inventory location.
func randCells(rng *rand.Rand, inv map[int64]geo.Point) []core.CellSeries {
	cfg := highlights.Config{Numeric: cellRefs, CellAttrs: cellRefs}
	sum := highlights.NewSummary(telco.TimeRange{})
	for _, schema := range []*telco.Schema{telco.NMSSchema, telco.CDRSchema} {
		tab := telco.NewTable(schema)
		for n := rng.Intn(12); n > 0; n-- {
			rec := make(telco.Record, schema.NumFields())
			for i, f := range schema.Fields {
				rec[i] = telco.Null
				switch {
				case f.Name == telco.AttrCellID:
					rec[i] = telco.Int(1 + rng.Int63n(40))
				case rng.Intn(4) == 0:
				case f.Kind == telco.KindFloat:
					rec[i] = telco.Float(randFloat(rng))
				case f.Kind == telco.KindInt:
					rec[i] = telco.Int(int64(randFloat(rng)) % (1 << 62))
				}
			}
			tab.Append(rec)
		}
		sum.AddTable(cfg, tab)
	}
	var cells []core.CellSeries
	for i := 0; i < sum.Cells(); i++ {
		id, rows, attrs := sum.Cell(i)
		cs := core.CellSeries{CellID: id, Loc: inv[id], Rows: rows, Attr: attrs}
		if rng.Intn(8) == 0 {
			cs.Attr = highlights.Attrs{}
		}
		cells = append(cells, cs)
	}
	return cells
}

// TestExploreBodyMatchesEncodingJSON: over seeded random answers, the
// hand-rendered /api/explore body equals, byte for byte, what the old
// path — cellsJSON and highlightsJSON into an ExploreJSON through a
// json.Encoder — wrote for the same answer and the same attr= and
// profile= parameters. The answers mix the float and string edges above
// with zero cells, partial answers with missing ranges, duplicate stage
// names, and cells the head memo holds or does not hold yet. Every 50
// answers a new server serves a new cell inventory. Each answer goes into
// a result cache and renders under every attr= mode — none, each
// dictionary attribute, unknown dotted ones and undotted ones — three
// times: as the miss, as a hit (the first hit fills the answer's memo of
// rendered cells) and as a hit again, which the memo serves when the
// attr= resolves as the first hit's did. Then four goroutines
// render them all at once over fresh head memos, hits from the memos.
func TestExploreBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var inv map[int64]geo.Point
	var servers []*Server
	attrs := []string{"", "NMS.rssi_dbm", "NMS.avg_duration", "NMS.drop_calls", "CDR.upflux",
		"CDR.nope", "nodot", ".", "NMS.", "NMS.rssi_dbm.x"}
	stageNames := []string{"plan", "collect", "leaf_decode", "merge", "<restrict>", "row_fetch"}
	t0 := time.Date(2016, 1, 18, 0, 0, 0, 0, time.UTC)
	rc := core.ResultsUnder(core.NewResultLRU(64<<20, obs.NewRegistry()), "")
	var answers []answer
	withCells, memoized := 0, 0 // answers, and those whose memo kept a rendering
	for i := 0; i < 300; i++ {
		res := &core.Result{Summary: highlights.NewSummary(telco.TimeRange{})}
		res.Summary.Rows = rng.Int63n(1 << 40)
		res.DecayedLeaves = rng.Intn(3)
		if i%50 == 0 {
			inv = randInventory(rng)
			servers = append(servers, &Server{})
		}
		if i%5 != 0 {
			res.Cells = randCells(rng, inv)
		}
		for n := rng.Intn(4); n > 0; n-- {
			h := highlights.Highlight{
				Attr: highlights.AttrRef{Table: randString(rng), Attr: randString(rng)},
				Kind: highlights.Kind(rng.Intn(2)), Value: randString(rng),
			}
			if rng.Intn(3) != 0 {
				h.Frequency = randFloat(rng)
			}
			if rng.Intn(3) != 0 {
				h.PeakValue = randFloat(rng)
			}
			res.Highlights = append(res.Highlights, h)
		}
		for n := rng.Intn(5); n > 0; n-- {
			res.Stages = append(res.Stages, obs.Stage{
				Name:     stageNames[rng.Intn(len(stageNames))],
				Duration: time.Duration(rng.Int63n(int64(time.Second))),
			})
		}
		if rng.Intn(2) == 0 {
			res.Profile = core.Profile{
				TraceID: randString(rng), LeavesScanned: rng.Intn(9), ChunksScanned: rng.Intn(99),
				InflatedBytes: rng.Int63n(1 << 30), ResultCacheHit: rng.Intn(2) == 0,
				Workers: []core.WorkerProfile{{Worker: 1, Units: 2, WallNS: rng.Int63()}},
				Shards:  []core.ShardProfile{{Shard: 1, LatencyMS: randFloat(rng), HedgeWin: true}},
			}
		}
		x := exploration{Result: res}
		if rng.Intn(2) == 0 {
			x.level = []string{"day", "hour", "month", randString(rng)}[rng.Intn(4)]
		} else {
			x.shardsQueried, x.shardsFailed, x.hedgeWins, x.retries = rng.Intn(4), rng.Intn(2), rng.Intn(2), rng.Intn(3)
			if x.partial = rng.Intn(2) == 0; x.partial {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					from := t0.Add(time.Duration(rng.Intn(96)) * 30 * time.Minute)
					x.missing = append(x.missing, telco.NewTimeRange(from, from.Add(24*time.Hour)))
				}
			}
		}
		rc.Put(fmt.Sprint(i), res)
		// A hit is a copy of the cached answer sharing its memo, as the
		// engine serves one.
		hit := *res
		hit.CacheHit = true
		hx := x
		hx.Result = &hit
		kept := false
		for _, attr := range attrs {
			c := answer{x, hx, attr, rng.Intn(3) == 0, len(servers) - 1, nil, nil}
			c.wantMiss = encodeExplore(t, c.miss, c.attr, c.profile)
			c.wantHit = encodeExplore(t, c.hit, c.attr, c.profile)
			answers = append(answers, c)
			s := servers[c.server]
			for pass, got := range [][]byte{c.render(t, s, c.miss), c.render(t, s, c.hit), c.render(t, s, c.hit)} {
				want := c.wantHit
				if pass == 0 {
					want = c.wantMiss
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("answer %d, pass %d (attr=%q, profile=%v):\n got %s\nwant %s", i, pass, c.attr, c.profile, got, want)
				}
			}
			if len(res.Cells) == 0 {
				continue
			}
			if cells, ok := res.RenderedCells(pickAttr(attr, res.Cells).key); ok {
				kept = true
				if !bytes.Contains(c.wantHit, append(append([]byte(`"cells":`), cells...), `,"highlights":`...)) {
					t.Fatalf("answer %d (attr=%q): the memo holds %s", i, attr, cells)
				}
			}
		}
		if len(res.Cells) > 0 {
			withCells++
			if kept {
				memoized++
			}
		}
	}
	// An answer keeps its first hit's rendering unless its cells print
	// past the reserve, as most of these do: the random locations print
	// up to ~50 bytes each, where the generator's print ~10.
	// TestCellsMemoStaysInReserve pins which widths fit.
	t.Logf("the memo kept a rendering of %d of %d answers", memoized, withCells)
	if memoized < withCells/5 {
		t.Fatalf("the memo kept a rendering of %d of %d answers", memoized, withCells)
	}
	// Requests render concurrently: four goroutines share fresh head memos
	// and the answers' memos.
	for i := range servers {
		servers[i] = &Server{}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range answers {
				c := &answers[(i+g*len(answers)/4)%len(answers)]
				s := servers[c.server]
				if got := c.render(t, s, c.hit); !bytes.Equal(got, c.wantHit) {
					t.Errorf("goroutine %d: hit differs:\n got %s\nwant %s", g, got, c.wantHit)
					return
				}
				if got := c.render(t, s, c.miss); !bytes.Equal(got, c.wantMiss) {
					t.Errorf("goroutine %d: miss differs:\n got %s\nwant %s", g, got, c.wantMiss)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCellsMemoKeysByResolvedAttr: a cached answer's memo keeps its first
// hit's rendering under what attr= resolved to, and a later hit whose
// attr= resolves alike is served it — here an unknown dotted attr= and an
// undotted one, which both read no attribute. A miss keeps nothing, and a
// hit under another attr= renders as a miss does and keeps nothing. Every
// body equals the oracle's.
func TestCellsMemoKeysByResolvedAttr(t *testing.T) {
	sum := highlights.NewSummary(telco.TimeRange{})
	for _, schema := range []*telco.Schema{telco.CDRSchema, telco.NMSSchema} {
		tab := telco.NewTable(schema)
		for id := int64(1); id <= 4; id++ {
			rec := make(telco.Record, schema.NumFields())
			for i, f := range schema.Fields {
				rec[i] = telco.Null
				switch {
				case f.Name == telco.AttrCellID:
					rec[i] = telco.Int(id)
				case f.Kind == telco.KindInt || f.Kind == telco.KindFloat:
					rec[i] = telco.Int(id*10 + int64(i))
				}
			}
			tab.Append(rec)
		}
		sum.AddTable(highlights.Config{Numeric: cellRefs, CellAttrs: cellRefs}, tab)
	}
	res := &core.Result{Summary: highlights.NewSummary(telco.TimeRange{})}
	for i := 0; i < sum.Cells(); i++ {
		id, rows, attrs := sum.Cell(i)
		res.Cells = append(res.Cells, core.CellSeries{CellID: id, Rows: rows, Attr: attrs})
	}
	core.ResultsUnder(core.NewResultLRU(1<<20, obs.NewRegistry()), "").Put("a", res)
	hit := *res
	hit.CacheHit = true
	s := &Server{}
	const none = int32(-3) // the memo holds no rendering
	for _, step := range []struct {
		attr string
		hit  bool
		held int32 // the key the memo holds a rendering under afterwards
	}{
		{"nodot", false, none},
		{"nodot", true, keyNone},
		{"CDR.nope", true, keyNone},
		{"NMS.rssi_dbm", true, keyNone},
		{"", true, keyNone},
		{"NMS.rssi_dbm", false, keyNone},
	} {
		x := exploration{Result: res}
		if step.hit {
			x.Result = &hit
		}
		got, err := s.appendExplore(nil, x, step.attr, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeExplore(t, x, step.attr, false); !bytes.Equal(got, want) {
			t.Fatalf("attr=%q, hit %v:\n got %s\nwant %s", step.attr, step.hit, got, want)
		}
		for k := int32(keySmallest); k < int32(len(res.Cells[0].Attr.Dict())); k++ {
			if _, ok := res.RenderedCells(k); ok != (k == step.held) {
				t.Fatalf("after attr=%q (hit %v) the memo holds key %d: %v, want only key %d", step.attr, step.hit, k, ok, step.held)
			}
		}
	}
}

// TestTemplateBodyMatchesEncodingJSON: over seeded random answers and
// every template, the hand-rendered /api/template body equals, byte for
// byte, what the handler wrote through encoding/json, for every answer
// encoding/json can write. For one it refuses (a sum or mean that
// overflowed to an infinity) the body is still valid JSON.
func TestTemplateBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var inv map[int64]geo.Point
	compared, refused := 0, 0
	for i := 0; i < 300; i++ {
		if i%50 == 0 {
			inv = randInventory(rng)
		}
		var cells []core.CellSeries
		if i%5 != 0 {
			cells = randCells(rng, inv)
		}
		for _, name := range templateNames() {
			spec := templates[name]
			got := appendTemplate(nil, name, spec, cells)
			want, err := encodeTemplate(name, spec, cells)
			if err != nil {
				refused++
				if !json.Valid(got) {
					t.Fatalf("answer %d, %s: invalid body %s", i, name, got)
				}
				continue
			}
			compared++
			if !bytes.Equal(got, want) {
				t.Fatalf("answer %d, %s:\n got %s\nwant %s", i, name, got, want)
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d of %d bodies compared", compared, compared+refused)
	}
}

// answer is one exploration, as its miss and as a hit on its cached copy,
// with its request's parameters, the server (by index) whose inventory its
// cells come from, and the bodies the oracle wrote for the two.
type answer struct {
	miss, hit         exploration
	attr              string
	profile           bool
	server            int
	wantMiss, wantHit []byte
}

func (c *answer) render(t *testing.T, s *Server, x exploration) []byte {
	b, err := s.appendExplore(nil, x, c.attr, c.profile)
	if err != nil {
		t.Error(err)
	}
	return b
}

// TestSQLBodyMatchesEncodingJSON: over seeded random result sets, the
// hand-rendered /api/sql body equals what the old path — every value
// through Value.Format into a [][]string, then a json.Encoder over
// {"cols", "rows"} — wrote. The sets mix empty results, NULLs, ints,
// floats (NaN and the infinities among them: SQL prints them as text),
// times and strings that need escaping.
func TestSQLBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	randValue := func() telco.Value {
		switch rng.Intn(6) {
		case 0:
			return telco.Null
		case 1:
			return telco.String(randString(rng))
		case 2:
			return telco.Int(rng.Int63() - rng.Int63())
		case 3:
			return telco.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1), randFloat(rng)}[rng.Intn(4)])
		case 4:
			return telco.Time(time.Unix(rng.Int63n(1<<35)-1<<34, 0))
		}
		return telco.Float(randFloat(rng))
	}
	for i := 0; i < 300; i++ {
		rs := &sqlengine.ResultSet{}
		if i%7 != 0 {
			rs.Cols = []string{}
			for n := rng.Intn(4); n > 0; n-- {
				rs.Cols = append(rs.Cols, randString(rng))
			}
		}
		if i%4 != 0 {
			for n := rng.Intn(6); n > 0; n-- {
				row := make([]telco.Value, rng.Intn(5))
				for j := range row {
					row[j] = randValue()
				}
				rs.Rows = append(rs.Rows, row)
			}
		}
		want := encodeSQL(t, rs)
		if got := appendSQL(nil, rs); !bytes.Equal(got, want) {
			t.Fatalf("result %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// FuzzJSONAppend: on any string and any float64 bit pattern, appendString
// and appendFloat write what json.Marshal writes, and a NaN or infinity,
// which json.Marshal refuses, writes null.
func FuzzJSONAppend(f *testing.F) {
	seeds := []struct {
		s string
		v float64
	}{
		{"<script>", math.Copysign(0, -1)}, {"\u2028", 1 << 53}, {"\xff", 1<<53 + 2},
		{"", 1 << 60}, {"plain", 1e21}, {"q\"\\\n", 1e-7},
	}
	for _, s := range seeds {
		f.Add(s.s, math.Float64bits(s.v))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, json.Marshal %s", s, got, want)
		}
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			want = []byte("null")
		} else if want, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, json.Marshal %s", v, got, want)
		}
	})
}

// FuzzSQLColumns: an answer held in column batches renders to the bytes
// appendSQL writes for the records telco.Batch.AppendRecords makes of the
// same rows — strings plain and dictionary-coded, integers, floats and
// times, nulls in each, a selection over the rows and output columns read
// in any order, repeats included.
func FuzzSQLColumns(f *testing.F) {
	f.Add("<b>& \\", int64(-7), math.Float64bits(1e21), int64(1453075200), uint8(0x5a), uint8(0x06))
	f.Add("", int64(0), math.Float64bits(math.NaN()), int64(-1), uint8(0xff), uint8(0x07))
	f.Add("\xff\x01\"", int64(math.MinInt64), math.Float64bits(math.Inf(-1)), int64(253402300799), uint8(0), uint8(0x03))
	f.Add("x", int64(1), math.Float64bits(math.Copysign(0, -1)), int64(-62135596800), uint8(0x21), uint8(0x00))
	schema := telco.MustSchema("F", []telco.Field{
		{Name: "s", Kind: telco.KindString},
		{Name: "n", Kind: telco.KindInt},
		{Name: "x", Kind: telco.KindFloat},
		{Name: "ts", Kind: telco.KindTime},
		{Name: "d", Kind: telco.KindString},
	})
	f.Fuzz(func(t *testing.T, s string, n int64, xbits uint64, sec int64, nulls, keep uint8) {
		x := math.Float64frombits(xbits)
		half := s[:len(s)/2]
		rows := []telco.Record{
			{telco.String(s), telco.Int(n), telco.Float(x), telco.Time(time.Unix(sec, 0)), telco.Null},
			{telco.String(half), telco.Int(-n), telco.Float(-x), telco.Time(time.Unix(sec/2, 0)), telco.Null},
			{telco.Null, telco.Int(n / 3), telco.Float(x / 3), telco.Time(time.Unix(sec-1, 0)), telco.Null},
		}
		for i, r := range rows { // nulls: one bit per (row, numeric column)
			for k := 1; k <= 3; k++ {
				if nulls&(1<<(3*i+k-1)) != 0 {
					r[k] = telco.Null
				}
			}
		}
		var b telco.Batch
		b.SetRows(schema, nil, rows, false)
		// d is dictionary-coded over s, "" and half.
		d := &b.Cols[4]
		arena := append(append([]byte(s), half...), s...)
		d.SetEntries(3)
		d.Starts[0], d.Ends[0] = 0, uint32(len(s))
		d.Starts[1], d.Ends[1] = uint32(len(s)), uint32(len(s))
		d.Starts[2], d.Ends[2] = uint32(len(s)), uint32(len(s)+len(half))
		d.OwnArena(arena)
		copy(d.UseCodes(len(rows)), []uint32{2, 0, 1})
		b.Keep(func(i int) bool { return keep&(1<<i) != 0 })

		pick := []int{4, 3, 0, 1, 2, 0}
		cols := []string{"d", "ts", "s", "n", "x", "s"}
		var want sqlengine.ResultSet
		want.Cols = cols
		for _, r := range telco.ProjectRows(b.AppendRecords(nil), pick) {
			want.Rows = append(want.Rows, r)
		}
		got := sqlengine.ResultSet{Cols: cols, Batches: []*telco.Batch{b.CopySelected(), b.CopySelected()}, Pick: pick}
		want.Rows = append(want.Rows, want.Rows...)
		if g, w := appendSQL(nil, &got), appendSQL(nil, &want); !bytes.Equal(g, w) {
			t.Errorf("from columns:\n%s\nfrom records:\n%s", g, w)
		}
	})
}
