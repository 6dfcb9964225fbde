package webui

import (
	"bytes"
	"encoding/json"
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
		st, ok := cs.Attr.Get(spec.attr)
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

// randCells builds a summary whose per-cell sums are drawn from
// floatEdges and friends (a cell mostly gets one row per table, so its sum
// is the value drawn) and views its cells as an answer would, each at its
// inventory location.
func randCells(rng *rand.Rand, inv map[int64]geo.Point) []core.CellSeries {
	refs := []highlights.AttrRef{
		{Table: "NMS", Attr: "rssi_dbm"}, {Table: "NMS", Attr: "avg_duration"},
		{Table: "NMS", Attr: "drop_calls"}, {Table: "CDR", Attr: telco.AttrUpflux},
	}
	cfg := highlights.Config{Numeric: refs, CellAttrs: refs}
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
// answers a new server serves a new cell inventory. Each answer renders
// twice, the second time with every head from the memo; then four
// goroutines render them all at once over fresh memos.
func TestExploreBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var inv map[int64]geo.Point
	var servers []*Server
	attrs := []string{"", "NMS.rssi_dbm", "NMS.avg_duration", "NMS.drop_calls", "CDR.upflux",
		"CDR.nope", "nodot", ".", "NMS.", "NMS.rssi_dbm.x"}
	stageNames := []string{"plan", "collect", "leaf_decode", "merge", "<restrict>", "row_fetch"}
	t0 := time.Date(2016, 1, 18, 0, 0, 0, 0, time.UTC)
	var answers []answer
	for i := 0; i < 300; i++ {
		res := &core.Result{Summary: highlights.NewSummary(telco.TimeRange{})}
		res.Summary.Rows = rng.Int63n(1 << 40)
		res.DecayedLeaves = rng.Intn(3)
		res.CacheHit = rng.Intn(2) == 0
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
		c := answer{x, attrs[rng.Intn(len(attrs))], rng.Intn(3) == 0, len(servers) - 1, nil}
		c.want = encodeExplore(t, c.x, c.attr, c.profile)
		answers = append(answers, c)
		for pass := 0; pass < 2; pass++ {
			if got := c.render(t, servers[c.server]); !bytes.Equal(got, c.want) {
				t.Fatalf("answer %d, pass %d (attr=%q, profile=%v):\n got %s\nwant %s", i, pass, c.attr, c.profile, got, c.want)
			}
		}
	}
	// Requests render concurrently: four goroutines share fresh memos.
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
				if got := c.render(t, servers[c.server]); !bytes.Equal(got, c.want) {
					t.Errorf("goroutine %d: answer differs:\n got %s\nwant %s", g, got, c.want)
					return
				}
			}
		}()
	}
	wg.Wait()
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

// answer is one exploration with its request's parameters, the server
// (by index) whose inventory its cells come from, and the body the oracle
// wrote for it.
type answer struct {
	x       exploration
	attr    string
	profile bool
	server  int
	want    []byte
}

func (c *answer) render(t *testing.T, s *Server) []byte {
	b, err := s.appendExplore(nil, c.x, c.attr, c.profile)
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
