package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/geo"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/telco"
)

// TestNodeRowOnlyRequestBuildsNoParts: a row request that carries a spec
// and no box is the SQL scan path, which throws summary parts away — so the
// node must not rebuild, encode or ship any. Its profile then counts the
// leaves and chunks of the spec scan alone, and its span subtree has one
// row_fetch and no explore_parts. A plain ExactRows exploration still gets
// parts and rows, and an empty shard's explore frame decodes with no parts.
func TestNodeRowOnlyRequestBuildsNoParts(t *testing.T) {
	g, snaps, window := testTrace(t, 1)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{DataNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(8)})
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	node := NewNode(eng)

	// Off the day's boundaries, so summary parts would have to be rebuilt
	// from the edge leaves' data.
	w := telco.TimeRange{From: window.From.Add(90 * time.Minute), To: window.To.Add(-90 * time.Minute)}
	spec := &scanspec.Spec{Columns: []string{telco.AttrUpflux}}
	ask := func(req exploreRequest) exploreResponse {
		t.Helper()
		return *askNode(t, node, req)
	}
	base := exploreRequest{FromUnix: w.From.Unix(), ToUnix: w.To.Unix(), Rows: true, Tables: []string{"CDR"}}

	rowsOnly := base
	rowsOnly.Spec = spec
	got := ask(rowsOnly)
	if len(got.Parts) != 0 || got.Scanned != 0 {
		t.Errorf("row-only spec request built %d parts over %d leaves, want none", len(got.Parts), got.Scanned)
	}
	if got.Rows["CDR"].Len() == 0 {
		t.Fatal("row-only spec request shipped no rows")
	}
	if got.Trace == nil || len(collectSpans(*got.Trace, "explore_parts")) != 0 {
		t.Error("row-only spec request ran explore_parts (or returned no trace)")
	}
	if got.Trace != nil && len(collectSpans(*got.Trace, "row_fetch")) != 1 {
		t.Errorf("row-only spec request's trace holds %d row_fetch spans, want 1", len(collectSpans(*got.Trace, "row_fetch")))
	}
	// What the scan alone costs, on the same (now warm) engine.
	ctx, want := core.ContextWithProfile(context.Background())
	err = eng.ScanTablesSpec(ctx, w, geo.Rect{}, []string{"CDR"}, spec, func(string, *telco.Table) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile == nil || got.Profile.LeavesScanned != want.LeavesScanned ||
		got.Profile.ChunksScanned != want.ChunksScanned {
		t.Errorf("row-only profile = %+v\nthe spec scan alone = %+v", got.Profile, want)
	}

	both := ask(base)
	if len(both.Parts) == 0 || both.Rows["CDR"].Len() == 0 || both.Profile.LeavesDecoded == 0 {
		t.Errorf("ExactRows exploration got %d parts (%d leaves decoded) and %d rows, want both",
			len(both.Parts), both.Profile.LeavesDecoded, both.Rows["CDR"].Len())
	}
	if len(collectSpans(*both.Trace, "explore_parts")) != 1 || len(collectSpans(*both.Trace, "row_fetch")) != 1 {
		t.Error("ExactRows exploration did not run explore_parts and row_fetch once each")
	}

	// An empty shard answers with the same frame, and no parts in it.
	empty := askNode(t, NewNode(newRefEngine(t, g)), base)
	if len(empty.Parts) != 0 || empty.Leaves != 0 || len(empty.Rows) != 0 {
		t.Errorf("empty shard answered %d parts, %d leaves, %d row tables", len(empty.Parts), empty.Leaves, len(empty.Rows))
	}
}

// TestNodeRepeatedExploreRebuildsNothing: a node over a reopened store —
// whose leaves keep no summary encoding yet — asked the same exploration
// twice rebuilds its leaves once. The second answer's parts section is byte
// for byte the first's, its profile and explore_parts span say the leaves
// came from the cache, and it scanned no chunk.
func TestNodeRepeatedExploreRebuildsNothing(t *testing.T) {
	g, snaps, window := testTrace(t, 1)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{DataNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewNoop()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	if eng, err = core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(8)}); err != nil {
		t.Fatal(err)
	}
	node := NewNode(eng)
	w := telco.TimeRange{From: window.From.Add(90 * time.Minute), To: window.To.Add(-90 * time.Minute)}
	req := exploreRequest{FromUnix: w.From.Unix(), ToUnix: w.To.Unix()}

	first, second := exploreFrame(t, node, req), exploreFrame(t, node, req)
	if !bytes.Equal(frameBody(t, first), frameBody(t, second)) {
		t.Error("the repeated exploration's parts differ from the first's")
	}
	cold, err := readExploreFrame(first)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := readExploreFrame(second)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Scanned == 0 || cold.Profile.LeavesCached != 0 {
		t.Fatalf("first exploration: %d leaves rebuilt, %d cached", cold.Scanned, cold.Profile.LeavesCached)
	}
	if warm.Scanned != 0 || warm.Profile.LeavesScanned != 0 || warm.Profile.LeavesCached != cold.Scanned ||
		warm.Profile.ChunksScanned != 0 {
		t.Errorf("repeated exploration: %d leaves rebuilt, %d cached, %d chunks scanned; want 0, %d, 0",
			warm.Profile.LeavesScanned, warm.Profile.LeavesCached, warm.Profile.ChunksScanned, cold.Scanned)
	}
	spans := collectSpans(*warm.Trace, "explore_parts")
	if len(spans) != 1 || spans[0].Attrs["leaves_cached"] != strconv.Itoa(cold.Scanned) {
		t.Errorf("explore_parts spans %+v, want one with leaves_cached=%d", spans, cold.Scanned)
	}
}

// frameBody is an explore frame without its JSON header: the parts and rows
// sections.
func frameBody(tb testing.TB, frame []byte) []byte {
	tb.Helper()
	n, k := binary.Uvarint(frame)
	if k <= 0 || uint64(len(frame)-k) < n {
		tb.Fatal("malformed explore frame header")
	}
	return frame[k+int(n):]
}

// TestNodeRejectsInvalidSpec: a node validates a pushed-down spec in every
// mode and answers 400 for one Validate refuses — a predicate op or literal
// kind it does not know, or an int or float literal that does not parse —
// instead of answering as though no row matched.
func TestNodeRejectsInvalidSpec(t *testing.T) {
	g, snaps, window := testTrace(t, 1)
	eng := newRefEngine(t, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	node := NewNode(eng)
	post := func(req exploreRequest) int {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc/explore", bytes.NewReader(body)))
		return rec.Code
	}
	base := exploreRequest{FromUnix: window.From.Unix(), ToUnix: window.To.Unix(), Rows: true, Tables: []string{"CDR"}}
	valid := scanspec.Pred{Col: telco.AttrDuration, Op: ">=", Kind: "int", Val: "0"}
	good := base
	good.Spec = &scanspec.Spec{Columns: []string{telco.AttrUpflux}, Preds: []scanspec.Pred{valid}}
	if rows := askNode(t, node, good).Rows["CDR"]; rows.Len() == 0 {
		t.Fatal("a valid predicate matched no row")
	}
	for _, bad := range []scanspec.Pred{
		{Col: telco.AttrDuration, Op: "~", Kind: "int", Val: "0"},
		{Col: telco.AttrDuration, Op: ">=", Kind: "blob", Val: "0"},
		{Col: telco.AttrDuration, Op: ">=", Kind: "int", Val: "abc"},
		{Col: telco.AttrDuration, Op: ">=", Kind: "float", Val: "1.5x"},
	} {
		spec := &scanspec.Spec{Columns: []string{telco.AttrUpflux}, Preds: []scanspec.Pred{bad}}
		rowsOnly, boxed, agg := base, base, base
		rowsOnly.Spec, boxed.Spec = spec, spec
		boxed.Boxed, boxed.MinX, boxed.MinY, boxed.MaxX, boxed.MaxY = true, -1e9, -1e9, 1e9, 1e9
		agg.Rows, agg.AggTable = false, "CDR"
		agg.Spec = &scanspec.Spec{Preds: spec.Preds, Aggs: []scanspec.Agg{{Fn: "COUNT"}}}
		for mode, req := range map[string]exploreRequest{"rows": rowsOnly, "boxed rows": boxed, "aggregate": agg} {
			if code := post(req); code != http.StatusBadRequest {
				t.Errorf("%s request with predicate %+v: status %d, want 400", mode, bad, code)
			}
		}
	}
}

// askNode posts req to node's /rpc/explore and reads the explore frame it
// answers with.
func askNode(tb testing.TB, node *Node, req exploreRequest) *exploreResponse {
	tb.Helper()
	resp, err := readExploreFrame(exploreFrame(tb, node, req))
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// exploreFrame posts req to node's /rpc/explore and returns the explore
// frame it answers with.
func exploreFrame(tb testing.TB, node *Node, req exploreRequest) []byte {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc/explore", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("/rpc/explore: status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != exploreFrameType {
		tb.Fatalf("/rpc/explore answered %q, not an explore frame", ct)
	}
	return rec.Body.Bytes()
}

// TestScatterModes: the one scatter serves both contracts. Strict callers
// get the lowest failed shard's error (ErrDegraded) however many failed;
// the tolerant caller gets a Partial answer whose Missing ranges are the
// failed shards' owned ranges, in shard order.
func TestScatterModes(t *testing.T) {
	g, snaps, window := testTrace(t, 3)
	lc := startTestCluster(t, Config{Shards: 3, Retries: -1, Obs: obs.NewRegistry()}, g, snaps)
	ctx := context.Background()
	m := lc.Coordinator.Map()
	spec := &scanspec.Spec{Columns: []string{telco.AttrUpflux}}

	// Two of the three shards fail their one attempt.
	failed := []int{1, 2}
	inject := func() {
		for _, s := range failed {
			lc.Node(m.Slot(s, 0), 0).FailNext(1)
		}
	}

	inject()
	_, err := lc.Coordinator.ScanRows(ctx, window, []string{"CDR"}, spec)
	if !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "shard 1 failed after 0 retries") {
		t.Errorf("strict row scatter: %v, want ErrDegraded naming shard 1", err)
	}
	inject()
	agg := &scanspec.Spec{Aggs: []scanspec.Agg{{Fn: "COUNT"}}}
	_, err = lc.Coordinator.AggregatePartials(ctx, window, "CDR", agg)
	if !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "shard 1 failed after 0 retries") {
		t.Errorf("strict aggregate scatter: %v, want ErrDegraded naming shard 1", err)
	}
	// The faults are spent: the same calls answer.
	if rows, err := lc.Coordinator.ScanRows(ctx, window, []string{"CDR"}, spec); err != nil || rows["CDR"].Len() == 0 {
		t.Errorf("row scatter after the faults: %v", err)
	}

	inject()
	res, err := lc.Coordinator.Explore(ctx, core.Query{Window: window, ExactRows: true, Tables: []string{"CDR"}})
	if err != nil {
		t.Fatal(err)
	}
	var want []telco.TimeRange
	for _, s := range failed {
		want = append(want, m.OwnedRanges(s, window)...)
	}
	if !res.Partial || res.ShardsFailed != 2 || res.ShardsQueried != 3 || !reflect.DeepEqual(res.Missing, want) {
		t.Errorf("tolerant scatter: partial=%v failed=%d/%d missing=%v, want %v",
			res.Partial, res.ShardsFailed, res.ShardsQueried, res.Missing, want)
	}
	if res.Rows["CDR"].Len() == 0 || len(res.Profile.Shards) != 3 {
		t.Errorf("tolerant scatter kept %d rows and %d shard entries", res.Rows["CDR"].Len(), len(res.Profile.Shards))
	}
	// A caller that has gone away is not a degraded cluster.
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := lc.Coordinator.ScanRows(gone, window, []string{"CDR"}, spec); !errors.Is(err, context.Canceled) || errors.Is(err, ErrDegraded) {
		t.Errorf("canceled strict scatter: %v, want context.Canceled", err)
	}
}
