package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/gen"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// twoShards is two single-replica shards serving a two-day trace over
// HTTP, for tests that put bad replicas beside them.
type twoShards struct {
	tb     testing.TB
	g      *gen.Generator
	snaps  []*snapshot.Snapshot
	window telco.TimeRange
	cfg    Config
	m      *ShardMap
	nodes  [2]*Node
	urls   [2]string
}

func newTwoShards(t *testing.T) *twoShards {
	f := &twoShards{tb: t, cfg: Config{Shards: 2, Retries: -1, HedgeDelay: time.Millisecond, Obs: obs.NewNoop()}}
	f.g, f.snaps, f.window = testTrace(t, 2)
	cells, err := core.NewCellInventory(f.g.CellTable())
	if err != nil {
		t.Fatal(err)
	}
	f.m = NewShardMap(f.cfg.withDefaults(), cells.Points())
	for s := range f.urls {
		f.nodes[s] = NewNode(newRefEngine(t, f.g))
		f.urls[s] = f.serve(f.nodes[s].Handler())
	}
	ctx := context.Background()
	healthy := f.coordinator([][]string{{f.urls[0]}, {f.urls[1]}})
	for _, sn := range f.snaps {
		if err := healthy.Ingest(ctx, sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := healthy.FinishIngest(ctx); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *twoShards) serve(h http.Handler) string {
	srv := httptest.NewServer(h)
	f.tb.Cleanup(srv.Close)
	return srv.URL
}

func (f *twoShards) coordinator(topology [][]string) *Coordinator {
	c, err := NewCoordinator(f.cfg, f.m, topology, f.g.CellTable())
	if err != nil {
		f.tb.Fatal(err)
	}
	return c
}

// TestBadFrameDegradesOneSlot: a replica whose explore frame arrives cut
// short, or carries a malformed part, fails like a replica that is down. As
// its slot's lone replica it turns the answer Partial with its shard's
// Missing ranges; beside a healthy replica, second or first, it does not
// change the answer.
func TestBadFrameDegradesOneSlot(t *testing.T) {
	f := newTwoShards(t)
	m, window, nodes, good, coordinator, serve := f.m, f.window, f.nodes, f.urls, f.coordinator, f.serve
	snaps := f.snaps
	ctx := context.Background()
	healthy := coordinator([][]string{{good[0]}, {good[1]}})

	// Two bad replicas of shard bad: one cuts the node's frame in half, the
	// other sends a well-formed frame whose one part is cut short.
	bad := m.TimeShardOf(snaps[len(snaps)-1].Epoch)
	truncated := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		nodes[bad].Handler().ServeHTTP(rec, r)
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
	}))
	part, err := highlights.NewSummary(window).Encode()
	if err != nil {
		t.Fatal(err)
	}
	part = part[:len(part)-1]
	badPart := serve(serveFrame(rawFrame(`{"leaves":1}`, [][]byte{part}, nil, nil)))

	q := core.Query{Window: window}
	want, err := healthy.Explore(ctx, q)
	if err != nil || want.Partial {
		t.Fatalf("healthy cluster: %v (partial %v)", err, want != nil && want.Partial)
	}
	topology := [][]string{{good[0]}, {good[1]}}
	for _, replica := range []string{truncated, badPart} {
		topology[bad] = []string{replica}
		res, err := coordinator(topology).Explore(ctx, q)
		if err != nil {
			t.Fatalf("a bad frame failed the query: %v", err)
		}
		if !res.Partial || res.ShardsFailed != 1 || !reflect.DeepEqual(res.Missing, m.OwnedRanges(bad, window)) {
			t.Fatalf("partial=%v failed=%d missing=%v, want shard %d's ranges %v",
				res.Partial, res.ShardsFailed, res.Missing, bad, m.OwnedRanges(bad, window))
		}
		if e := res.Profile.Shards[bad].Error; !strings.Contains(e, "explore frame") {
			t.Errorf("shard %d failed with %q, want an explore frame error", bad, e)
		}

		for _, replicas := range [][]string{{good[bad], replica}, {replica, good[bad]}} {
			topology[bad] = replicas
			got, err := coordinator(topology).Explore(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Partial || !reflect.DeepEqual(got.Summary, want.Summary) || !reflect.DeepEqual(got.Cells, want.Cells) {
				t.Errorf("replicas %v: partial=%v, or the answer changed", replicas, got.Partial)
			}
		}
	}
}

// TestMisSizedPartialsFailTheirSlot: a shard whose partials hold another
// number of cells than the spec has aggregates — here a replica of shard 0
// that folds only the first of three — fails its slot alone. As the lone
// replica the call fails with ErrDegraded naming the shard (the partials of
// the two shards used to merge into an index-out-of-range panic); beside a
// healthy replica, either side, the answer is the healthy one.
func TestMisSizedPartialsFailTheirSlot(t *testing.T) {
	f := newTwoShards(t)
	spec := &scanspec.Spec{Aggs: []scanspec.Agg{{Fn: "COUNT"}, {Fn: "SUM", Col: telco.AttrDuration}, {Fn: "MAX", Col: telco.AttrUpflux}}}
	oneCell := f.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req exploreRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Spec == nil {
			t.Errorf("proxy: %v", err)
			return
		}
		req.Spec.Aggs = req.Spec.Aggs[:1]
		body, _ := json.Marshal(req)
		f.nodes[0].Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/rpc/explore", bytes.NewReader(body)))
	}))
	ctx := context.Background()
	aggregate := func(replicas []string) ([]scanspec.Partial, error) {
		return f.coordinator([][]string{replicas, {f.urls[1]}}).AggregatePartials(ctx, f.window, "CDR", spec)
	}
	want, err := aggregate([]string{f.urls[0]})
	if err != nil || len(want) != 1 || want[0].Cells[0].Count == 0 {
		t.Fatalf("healthy cluster: %+v, %v", want, err)
	}
	if _, err := aggregate([]string{oneCell}); !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "shard 0 failed") ||
		!strings.Contains(err.Error(), "1 cells for 3 aggregates") {
		t.Errorf("one-cell partials: %v, want ErrDegraded naming shard 0", err)
	}
	for _, replicas := range [][]string{{f.urls[0], oneCell}, {oneCell, f.urls[0]}} {
		if got, err := aggregate(replicas); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("replicas %v: %+v, %v; want the healthy answer", replicas, got, err)
		}
	}
}

// rawFrame is an explore frame of a header and sections as given: the
// parts' bytes (each under its own digest), each rows table as its name,
// field list and text, and the partials section (nil: no partials).
func rawFrame(hdr string, parts [][]byte, rows [][3]string, partials []byte) []byte {
	sums := make([][sha256.Size]byte, len(parts))
	for i, p := range parts {
		sums[i] = sha256.Sum256(p)
	}
	return rawFrameSums(hdr, sums, parts, rows, partials)
}

// rawFrameSums is rawFrame with each part sent under the digest given.
func rawFrameSums(hdr string, sums [][sha256.Size]byte, parts [][]byte, rows [][3]string, partials []byte) []byte {
	if partials == nil {
		partials = scanspec.AppendPartials(nil, nil)
	}
	var f frameWriter
	f.field([]byte(hdr))
	f.uvarint(len(parts))
	for i, p := range parts {
		f.digest(sums[i])
		f.field(p)
	}
	f.uvarint(len(rows))
	for _, t := range rows {
		for _, s := range t {
			f.field([]byte(s))
		}
	}
	f.field(partials)
	return slices.Concat(f.chunks...)
}

// rehashParts returns a copy of frame with each part's digest made the
// SHA-256 of its bytes, as far as the frame's header and parts section
// parse: what the fuzzer mutates then reaches the part decoder too.
func rehashParts(frame []byte) []byte {
	out := bytes.Clone(frame)
	r := frameReader{b: out}
	r.field()
	n := r.count(sha256.Size + 1)
	for range n {
		sum, part := r.fixed(sha256.Size), r.field()
		if r.err != nil {
			break
		}
		got := sha256.Sum256(part)
		copy(sum, got[:])
	}
	return out
}

// serveFrame answers every request with frame.
func serveFrame(frame []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", exploreFrameType)
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		w.Write(frame)
	})
}

// TestBadPartialsSectionFailsItsSlot: a partials section with a value kind
// the coordinator does not know, or cut short, fails its replica like a
// replica that is down: ErrDegraded as the slot's lone replica, the healthy
// answer beside a good one.
func TestBadPartialsSectionFailsItsSlot(t *testing.T) {
	f := newTwoShards(t)
	spec := &scanspec.Spec{Aggs: []scanspec.Agg{{Fn: "COUNT"}}}
	section := scanspec.AppendPartials(nil, []scanspec.Partial{{Cells: []scanspec.Cell{{Seen: true, Count: 1}}}})
	unknownKind := bytes.Clone(section)
	unknownKind[1] = 9 // the group value's kind
	ctx := context.Background()
	aggregate := func(replicas []string) ([]scanspec.Partial, error) {
		return f.coordinator([][]string{{f.urls[0]}, replicas}).AggregatePartials(ctx, f.window, "CDR", spec)
	}
	want, err := aggregate([]string{f.urls[1]})
	if err != nil {
		t.Fatal(err)
	}
	for name, partials := range map[string][]byte{
		"unknown value kind": unknownKind,
		"cut short":          section[:len(section)-1],
		"trailing bytes":     append(bytes.Clone(section), 0),
	} {
		bad := f.serve(serveFrame(rawFrame(`{"leaves":1}`, nil, nil, partials)))
		if _, err := aggregate([]string{bad}); !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "shard 1 failed") ||
			!strings.Contains(err.Error(), "partials") {
			t.Errorf("%s: %v, want ErrDegraded naming shard 1's partials", name, err)
		}
		for _, replicas := range [][]string{{f.urls[1], bad}, {bad, f.urls[1]}} {
			if got, err := aggregate(replicas); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: replicas %v: %v; want the healthy answer", name, replicas, err)
			}
		}
	}
}

// TestBadRowsSectionFailsItsSlot: a rows table whose text does not parse
// under its layout, or whose field list names an unknown field, a field
// twice or fields out of stored order, fails its replica like a replica
// that is down — the rows decode in the replica's goroutine, not after the
// scatter. As the slot's lone replica it turns an exploration Partial with
// its shard's Missing ranges and fails a row scan with ErrDegraded naming
// the shard; beside a healthy replica, either side, the answer is the
// healthy one.
func TestBadRowsSectionFailsItsSlot(t *testing.T) {
	f := newTwoShards(t)
	ctx := context.Background()
	bad := 1
	nmsFields := strings.Join(telco.NMSSchema.FieldNames(), "|")
	q := core.Query{Window: f.window, Tables: []string{"NMS"}, ExactRows: true}
	spec := &scanspec.Spec{Columns: []string{telco.AttrUpflux}}
	topology := func(replicas []string) [][]string {
		top := [][]string{{f.urls[0]}, {f.urls[1]}}
		top[bad] = replicas
		return top
	}
	want, err := f.coordinator(topology([]string{f.urls[bad]})).Explore(ctx, q)
	if err != nil || want.Partial || want.Rows["NMS"].Len() == 0 {
		t.Fatalf("healthy cluster: %v", err)
	}
	wantRows, err := f.coordinator(topology([]string{f.urls[bad]})).ScanRows(ctx, f.window, []string{"CDR"}, spec)
	if err != nil || wantRows["CDR"].Len() == 0 {
		t.Fatalf("healthy cluster: %v", err)
	}
	for name, table := range map[string][3]string{
		"bad row text":     {"NMS", nmsFields, "not|a|row\n"},
		"unknown field":    {"CDR", "ts|upflux|nope", ""},
		"repeated field":   {"CDR", "ts|upflux|upflux", ""},
		"out of order":     {"CDR", "upflux|ts", ""},
		"unknown table":    {"NOPE", "ts", ""},
		"empty field list": {"CDR", "", ""},
	} {
		replica := f.serve(serveFrame(rawFrame(`{"leaves":1}`, nil, [][3]string{table}, nil)))
		res, err := f.coordinator(topology([]string{replica})).Explore(ctx, q)
		if err != nil {
			t.Fatalf("%s: a bad rows section failed the exploration: %v", name, err)
		}
		if !res.Partial || res.ShardsFailed != 1 || !reflect.DeepEqual(res.Missing, f.m.OwnedRanges(bad, f.window)) {
			t.Errorf("%s: partial=%v failed=%d missing=%v, want shard %d's ranges", name, res.Partial, res.ShardsFailed, res.Missing, bad)
		}
		if e := res.Profile.Shards[bad].Error; !strings.Contains(e, "rows table") {
			t.Errorf("%s: shard %d failed with %q, want a rows table error", name, bad, e)
		}
		_, err = f.coordinator(topology([]string{replica})).ScanRows(ctx, f.window, []string{"CDR"}, spec)
		if !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "shard 1 failed") {
			t.Errorf("%s: row scan: %v, want ErrDegraded naming shard 1", name, err)
		}
		for _, replicas := range [][]string{{f.urls[bad], replica}, {replica, f.urls[bad]}} {
			c := f.coordinator(topology(replicas))
			got, err := c.Explore(ctx, q)
			if err != nil || got.Partial || !reflect.DeepEqual(got.Summary, want.Summary) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s: replicas %v: %v, or the exploration changed", name, replicas, err)
			}
			rows, err := c.ScanRows(ctx, f.window, []string{"CDR"}, spec)
			if err != nil || !reflect.DeepEqual(rows, wantRows) {
				t.Errorf("%s: replicas %v: %v, or the row scan changed", name, replicas, err)
			}
		}
	}
}

// TestFrameReadIsBounded: a coordinator reads a frame into a buffer sized
// by its Content-Length, so an answer without one, or with one past
// maxFrameBytes, is refused before anything is allocated for it.
func TestFrameReadIsBounded(t *testing.T) {
	frame := rawFrame(`{"leaves":1}`, nil, nil, nil)
	for name, h := range map[string]http.HandlerFunc{
		"chunked": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", exploreFrameType)
			w.Write(frame)
			w.(http.Flusher).Flush() // commits the answer without a length
		},
		"oversized": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", exploreFrameType)
			w.Header().Set("Content-Length", strconv.Itoa(maxFrameBytes+1))
			w.Write(frame)
		},
	} {
		srv := httptest.NewServer(h)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := newClient(obs.NewNoop()).explore(context.Background(), srv.URL, exploreRequest{})
		runtime.ReadMemStats(&after)
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "explore frame") {
			t.Errorf("%s answer read as %v, want an explore frame error", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s answer: reading it allocated %d bytes", name, n)
		}
	}
	srv := httptest.NewServer(serveFrame(frame))
	defer srv.Close()
	if resp, err := newClient(obs.NewNoop()).explore(context.Background(), srv.URL, exploreRequest{}); err != nil || resp.Leaves != 1 || resp.frameBytes != len(frame) {
		t.Errorf("a well-formed frame read as %+v, %v", resp, err)
	}
}

// TestExploreAnswerIsAFrame: a 200 /rpc/explore answer that is not an explore
// frame is refused as a version mismatch — there is no JSON fallback.
func TestExploreAnswerIsAFrame(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"parts": []string{}, "leaves": 1})
	}))
	defer srv.Close()
	_, err := newClient(obs.NewNoop()).explore(context.Background(), srv.URL, exploreRequest{})
	if err == nil || !strings.Contains(err.Error(), "different versions") {
		t.Errorf("a JSON answer read as %v, want a version mismatch", err)
	}
}

// FuzzExploreFrame: the frame reader, which decodes every part it does
// not hold yet, every rows table and the partials, never panics and
// allocates no more than a bound proportional to its input. Each input is
// read twice, into a fresh part memo each time and as the answer to a
// request whose have list named one part: as it is, and with its parts'
// digests made to match their bytes, so mutated parts reach the part
// decoder as well as the digest check. Seeds are real node answers —
// parts and rows, rows alone, partials, an empty shard's, a T2-shaped
// narrow row scan, and parts beside the named one whose bytes it leaves
// out — a frame whose partials section holds an unknown value kind, one
// whose rows table lists its fields out of stored order, frames whose parts
// travel under another part's digest or a cut one, a frame that leaves out
// the bytes of a part the request did not name, one cut inside a left-out
// part's digest, and frames whose partials are out of key order or repeat
// a key.
func FuzzExploreFrame(f *testing.F) {
	g, snaps, window := testTrace(f, 1)
	eng := newRefEngine(f, g)
	for _, sn := range snaps[:2] {
		if _, err := eng.Ingest(sn); err != nil {
			f.Fatal(err)
		}
	}
	// Small seeds fuzz faster: two epochs, one of them in the window.
	w := telco.TimeRange{From: window.From.Add(30 * time.Minute), To: window.From.Add(time.Hour)}
	parts := exploreRequest{FromUnix: w.From.Unix(), ToUnix: w.To.Unix()}
	both := parts
	both.Rows, both.Tables = true, []string{"NMS"}
	rows := both
	rows.Spec = &scanspec.Spec{Columns: []string{"drop_calls"}}
	agg := parts
	agg.AggTable = "NMS"
	agg.Spec = &scanspec.Spec{GroupBy: telco.AttrCellID, Aggs: []scanspec.Agg{{Fn: "COUNT"}, {Fn: "MAX", Col: "rssi_dbm"}}}
	for _, req := range []exploreRequest{parts, both, rows, agg} {
		f.Add(exploreFrame(f, NewNode(eng), req))
	}
	badKind := scanspec.AppendPartials(nil, []scanspec.Partial{{Cells: []scanspec.Cell{{Seen: true, Count: 1}}}})
	badKind[1] = 9
	f.Add(rawFrame(`{"leaves":1}`, nil, nil, badKind))
	f.Add(exploreFrame(f, NewNode(newRefEngine(f, g)), parts))
	t2 := both
	t2.Tables = []string{"CDR"}
	t2.Spec = &scanspec.Spec{Columns: []string{telco.AttrUpflux, telco.AttrDownflux}}
	f.Add(exploreFrame(f, NewNode(eng), t2))
	f.Add(rawFrame(`{"leaves":1}`, nil, [][3]string{{"CDR", "upflux|ts", "1|20160118093000\n"}}, nil))
	a, err := highlights.NewSummary(w).Encode()
	if err != nil {
		f.Fatal(err)
	}
	b, err := highlights.NewSummary(window).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rawFrameSums(`{"leaves":1}`, [][sha256.Size]byte{sha256.Sum256(a), sha256.Sum256(a)}, [][]byte{a, b}, nil, nil))
	const hdr = `{"leaves":1}`
	f.Add(rawFrame(hdr, [][]byte{a}, nil, nil)[:1+len(hdr)+1+sha256.Size/2]) // cut inside the digest
	// The request behind every input named one real part of the node's.
	named := askNode(f, NewNode(eng), parts).Parts[0]
	sum, sumB := named.Digest(), sha256.Sum256(b)
	held := map[string]*highlights.Summary{string(sum[:]): named}
	req := parts
	req.Have = sum[:]
	f.Add(exploreFrame(f, NewNode(eng), req))
	f.Add(rawFrameSums(hdr, [][sha256.Size]byte{sum, sumB}, [][]byte{nil, b}, nil, nil))
	f.Add(rawFrameSums(hdr, [][sha256.Size]byte{sumB}, [][]byte{nil}, nil, nil))                             // left out, not named
	f.Add(rawFrameSums(hdr, [][sha256.Size]byte{sum}, [][]byte{nil}, nil, nil)[:1+len(hdr)+1+sha256.Size/2]) // cut inside its digest
	cell := func(key string) scanspec.Partial {
		return scanspec.Partial{Key: key, Group: scanspec.WireValue{Kind: "int", Val: key}, Cells: []scanspec.Cell{{Seen: true, Count: 1}}}
	}
	f.Add(rawFrame(hdr, nil, nil, scanspec.AppendPartials(nil, []scanspec.Partial{cell("1001"), cell("1000")})))
	f.Add(rawFrame(hdr, nil, nil, scanspec.AppendPartials(nil, []scanspec.Partial{cell("1000"), cell("1000")})))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, rehashParts(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			readExploreFrame(frame, newPartMemo(obs.NewNoop()), held)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > uint64(64*len(frame)+64<<10) {
				t.Fatalf("reading a %d-byte frame allocated %d bytes", len(frame), n)
			}
		}
	})
}
