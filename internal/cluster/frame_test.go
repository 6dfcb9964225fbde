package cluster

import (
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/telco"
)

// TestBadFrameDegradesOneSlot: a replica whose explore frame arrives cut
// short, or carries a malformed part, fails like a replica that is down. As
// its slot's lone replica it turns the answer Partial with its shard's
// Missing ranges; beside a healthy replica, second or first, it does not
// change the answer.
func TestBadFrameDegradesOneSlot(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	cfg := Config{Shards: 2, Retries: -1, HedgeDelay: time.Millisecond, Obs: obs.NewNoop()}
	cells, err := core.NewCellInventory(g.CellTable(), "")
	if err != nil {
		t.Fatal(err)
	}
	m := NewShardMap(cfg.withDefaults(), cells.Points())
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	var good [2]string
	var nodes [2]*Node
	for s := range good {
		nodes[s] = NewNode(newRefEngine(t, g))
		good[s] = serve(nodes[s].Handler())
	}
	ctx := context.Background()
	coordinator := func(topology [][]string) *Coordinator {
		c, err := NewCoordinator(cfg, m, topology, g.CellTable())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	healthy := coordinator([][]string{{good[0]}, {good[1]}})
	for _, sn := range snaps {
		if err := healthy.Ingest(ctx, sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := healthy.FinishIngest(ctx); err != nil {
		t.Fatal(err)
	}

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
	badPart := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := append(binary.AppendUvarint([]byte{1}, uint64(len(part))), part...)
		writeExploreFrame(w, &exploreResponse{Leaves: 1}, append(body, 0))
	}))

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

// TestExploreAnswerIsAFrame: a 200 /rpc/explore answer that is not an explore
// frame is refused as a version mismatch — there is no JSON fallback.
func TestExploreAnswerIsAFrame(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"parts": []string{}, "leaves": 1})
	}))
	defer srv.Close()
	_, err := newClient().explore(context.Background(), srv.URL, exploreRequest{})
	if err == nil || !strings.Contains(err.Error(), "different versions") {
		t.Errorf("a JSON answer read as %v, want a version mismatch", err)
	}
}

// FuzzExploreFrame: the frame reader never panics and allocates no more than
// a bound proportional to its input. Seeds are real node answers: parts and
// rows, rows alone, and an empty shard's.
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
	for _, req := range []exploreRequest{parts, both, rows} {
		f.Add(exploreFrame(f, NewNode(eng), req))
	}
	f.Add(exploreFrame(f, NewNode(newRefEngine(f, g)), parts))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		readExploreFrame(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(64*len(data)+64<<10) {
			t.Fatalf("reading a %d-byte frame allocated %d bytes", len(data), n)
		}
	})
}
