package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/decay"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/telco"
	"spate/internal/wal"
)

// TestCoordinatorReusesCheckedAnswer: a coordinator asked a query again
// names the parts of the answer it keeps, and the shards ship those as
// digests alone: the second ask's slot frames are small, nothing is decoded
// or merged — the answer is the kept one, summary and all — and it is bit
// for bit a fresh coordinator's. An append inside the window changes a
// part's digest, so the next ask merges again, and its answer is a fresh
// coordinator's too; the ask after it is served the new answer.
func TestCoordinatorReusesCheckedAnswer(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	reg, tracer := obs.NewRegistry(), obs.NewTracer(64)
	lc := startStreamCluster(t, Config{Shards: 2, Obs: reg, Tracer: tracer}, g)
	ctx := context.Background()
	day := window.From.Add(24 * time.Hour)
	head := telco.EpochsPerDay + 8 // day 2, 04:00
	appendSnapshots(t, lc, snaps[head-16:head])
	if err := lc.Coordinator.FlushStreams(ctx); err != nil {
		t.Fatal(err)
	}
	q := core.Query{Window: telco.TimeRange{From: day.Add(-3 * time.Hour), To: day.Add(6 * time.Hour)}, Box: cellBox(g)}
	ask := func(what string, wantHit bool) (*Result, obs.SpanJSON) {
		t.Helper()
		res, err := lc.Coordinator.Explore(ctx, q)
		if err != nil || res.Partial {
			t.Fatalf("%s: %v (partial %v)", what, err, res != nil && res.Partial)
		}
		root, ok := tracer.Find(res.TraceID)
		if !ok {
			t.Fatalf("%s: no trace of the exploration", what)
		}
		want := map[bool]string{true: "hit", false: "miss"}[wantHit]
		if res.CacheHit != wantHit || root.Attrs["answer"] != want {
			t.Errorf("%s: cache hit %v, span answer=%s; want %s", what, res.CacheHit, root.Attrs["answer"], want)
		}
		fresh, err := freshCoordinator(t, lc.Coordinator).Explore(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, what, &res.Result, &fresh.Result)
		sameHighlights(t, what, &res.Result, &fresh.Result)
		return res, root
	}

	first, _ := ask("first ask", false)
	second, root := ask("second ask", true)
	parts, _ := strconv.Atoi(root.Attrs["parts"])
	if parts == 0 || root.Attrs["parts_decoded"] != "0" || root.Attrs["parts_omitted"] != strconv.Itoa(parts) {
		t.Errorf("second ask: %d parts, %s decoded, %s left out; want none decoded, all left out",
			parts, root.Attrs["parts_decoded"], root.Attrs["parts_omitted"])
	}
	if second.Summary != first.Summary {
		t.Error("the second ask merged its parts again")
	}
	slots := collectSpans(root, "slot_explore")
	if len(slots) != 2 {
		t.Fatalf("%d slot spans, want 2", len(slots))
	}
	for _, sp := range slots {
		if n, _ := strconv.Atoi(sp.Attrs["frame_bytes"]); n == 0 || n >= 2<<10 {
			t.Errorf("shard %s answered the second ask with a %d-byte frame, want under 2 KiB", sp.Attrs["shard"], n)
		}
	}
	if got := metricValue(t, reg, "spate_cluster_answer_cache_entries"); got != 1 {
		t.Errorf("the answer cache holds %v answers, want 1", got)
	}

	// Rows of the open epoch at 04:00, in the window and not sealed yet.
	appendSnapshots(t, lc, snaps[head:head+1])
	third, _ := ask("after an append", false)
	if third.Summary == first.Summary {
		t.Error("the ask after an append was served the answer kept before it")
	}
	if third.Summary.Rows <= first.Summary.Rows {
		t.Errorf("the ask after an append counts %d rows, want more than %d", third.Summary.Rows, first.Summary.Rows)
	}
	if fourth, _ := ask("again after the append", true); fourth.Summary != third.Summary {
		t.Error("the ask after the re-merge was not served the re-merged answer")
	}
	if got := metricValue(t, reg, "spate_cluster_answer_cache_bytes"); got == 0 {
		t.Error("the answer cache reports no bytes")
	}
}

// TestAnswerCacheRace: explorers repeat three windows while the shards
// append, seal and decay under them — one of sealed leaves none of that
// touches, one across the day boundary that decay reaches, and one over the
// open epochs the appends land in. Every ask of the first is served the
// kept answer; once the writes stop, every window's answer, kept or
// re-merged, is bit for bit a fresh coordinator's.
func TestAnswerCacheRace(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	day := window.From.Add(24 * time.Hour)
	lc, err := StartLocal(Config{Shards: 2, Obs: obs.NewNoop()}, g.CellTable(), LocalOptions{
		Dir:       t.TempDir(),
		Engine:    core.Options{Obs: obs.NewNoop(), Policy: decay.Policy{KeepRaw: 6 * time.Hour}},
		Streaming: &core.StreamerOptions{Sync: wal.SyncNone, GroupWindow: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	ctx := context.Background()
	head := telco.EpochsPerDay + 8 // day 2, 04:00
	appendSnapshots(t, lc, snaps[head-16:head])
	if err := lc.Coordinator.FlushStreams(ctx); err != nil {
		t.Fatal(err)
	}
	stable := core.Query{Window: telco.TimeRange{From: day.Add(time.Hour), To: day.Add(3 * time.Hour)}}
	across := core.Query{Window: telco.TimeRange{From: day.Add(-3 * time.Hour), To: day.Add(3 * time.Hour)}, Box: cellBox(g)}
	open := core.Query{Window: telco.TimeRange{From: day.Add(2 * time.Hour), To: day.Add(7 * time.Hour)}}
	want, err := lc.Coordinator.Explore(ctx, stable)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				q := []core.Query{stable, across, open}[(i+n)%3]
				res, err := lc.Coordinator.Explore(ctx, q)
				if err != nil || res.Partial {
					t.Errorf("explore %v during writes: %v (partial %v)", q.Window, err, res != nil && res.Partial)
					return
				}
				if q.Window == stable.Window && (!res.CacheHit || res.Summary != want.Summary) {
					t.Errorf("the stable window was not served its kept answer during writes (hit %v)", res.CacheHit)
					return
				}
			}
		}()
	}
	decayed := 0
	for i, sn := range snaps[head : head+4] {
		appendSnapshots(t, lc, snaps[head+i:head+i+1])
		if i%2 == 1 {
			if err := lc.Coordinator.FlushStreams(ctx); err != nil {
				t.Error(err)
			}
		}
		if i == 2 {
			for _, n := range lc.Nodes {
				res, err := n.Engine().DecayRun(sn.Epoch.Start(), core.DecayBudget{BatchSize: 1})
				if err != nil {
					t.Error(err)
				}
				decayed += res.LeavesDecayed
			}
		}
	}
	close(done)
	wg.Wait()
	if decayed == 0 {
		t.Fatal("the decay run decayed no leaf")
	}

	for _, q := range []core.Query{stable, across, open} {
		fresh, err := freshCoordinator(t, lc.Coordinator).Explore(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for run := range 2 {
			got, err := lc.Coordinator.Explore(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if run == 1 && !got.CacheHit {
				t.Errorf("%v: a repeat after the writes was not served the kept answer", q.Window)
			}
			sameAnswer(t, "after the writes", &got.Result, &fresh.Result)
			sameHighlights(t, "after the writes", &got.Result, &fresh.Result)
		}
	}
}

// TestNodeHaveList: a node leaves out the bytes of exactly the parts a
// request's have list names, and refuses with a 400 a have list that is
// not whole digests or names more than maxHave of them.
func TestNodeHaveList(t *testing.T) {
	g, snaps, window := testTrace(t, 1)
	eng := newRefEngine(t, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	node := NewNode(eng)
	w := telco.TimeRange{From: window.From.Add(90 * time.Minute), To: window.From.Add(4 * time.Hour)}
	req := exploreRequest{FromUnix: w.From.Unix(), ToUnix: w.To.Unix()}
	all := askNode(t, node, req).Parts
	if len(all) < 2 {
		t.Fatalf("%d parts, want at least 2", len(all))
	}
	named := all[1]
	sum := named.Digest()
	req.Have, req.held = sum[:], map[string]*highlights.Summary{string(sum[:]): named}
	resp, err := readExploreFrame(exploreFrame(t, node, req), newPartMemo(obs.NewNoop()), req.held)
	if err != nil {
		t.Fatal(err)
	}
	if resp.partsOmitted != 1 || resp.partsDecoded != len(all)-1 || resp.Parts[1] != named {
		t.Errorf("%d parts left out, %d decoded; want part 1 alone left out", resp.partsOmitted, resp.partsDecoded)
	}

	post := func(have []byte) int {
		req := req
		req.Have = have
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc/explore", bytes.NewReader(body)))
		return rec.Code
	}
	for name, tc := range map[string]struct {
		have []byte
		want int
	}{
		"maxHave digests":    {make([]byte, maxHave*sha256.Size), http.StatusOK},
		"one too many":       {make([]byte, (maxHave+1)*sha256.Size), http.StatusBadRequest},
		"a digest cut short": {sum[:sha256.Size-1], http.StatusBadRequest},
	} {
		if got := post(tc.have); got != tc.want {
			t.Errorf("%s: status %d, want %d", name, got, tc.want)
		}
	}
}

// TestUnnamedOmittedPartFailsItsSlot: a replica whose frame leaves out the
// bytes of a part the request did not name fails like a replica that is
// down — the coordinator holds nothing to put in its place: as its slot's
// lone replica it turns the answer Partial; beside a healthy replica,
// either side, the answer is the healthy one.
func TestUnnamedOmittedPartFailsItsSlot(t *testing.T) {
	f := newTwoShards(t)
	ctx := context.Background()
	bad := 0
	part, _ := highlights.NewSummary(f.window).Encode()
	replica := f.serve(serveFrame(rawFrameSums(`{"leaves":1}`, [][sha256.Size]byte{sha256.Sum256(part)}, [][]byte{nil}, nil, nil)))
	topology := func(replicas ...string) [][]string {
		top := [][]string{{f.urls[0]}, {f.urls[1]}}
		top[bad] = replicas
		return top
	}
	q := core.Query{Window: f.window}
	want, err := f.coordinator(topology(f.urls[bad])).Explore(ctx, q)
	if err != nil || want.Partial {
		t.Fatalf("healthy cluster: %v", err)
	}
	res, err := f.coordinator(topology(replica)).Explore(ctx, q)
	if err != nil {
		t.Fatalf("a left-out part failed the query: %v", err)
	}
	if !res.Partial || res.ShardsFailed != 1 || !strings.Contains(res.Profile.Shards[bad].Error, errPartOmitted.Error()) {
		t.Fatalf("partial=%v failed=%d error %q, want shard %d failed on the left-out part",
			res.Partial, res.ShardsFailed, res.Profile.Shards[bad].Error, bad)
	}
	for _, replicas := range [][]string{{f.urls[bad], replica}, {replica, f.urls[bad]}} {
		got, err := f.coordinator(topology(replicas...)).Explore(ctx, q)
		if err != nil || got.Partial {
			t.Fatalf("replicas %v: %v (partial %v)", replicas, err, got != nil && got.Partial)
		}
		sameAnswer(t, "beside a healthy replica", &got.Result, &want.Result)
	}
}
