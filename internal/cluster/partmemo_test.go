package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
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

// freshCoordinator is a coordinator over c's nodes with an empty part
// memo: every part it reads, it decodes.
func freshCoordinator(tb testing.TB, c *Coordinator) *Coordinator {
	tb.Helper()
	cfg := c.cfg
	cfg.Obs, cfg.Tracer = obs.NewNoop(), nil
	fresh, err := newCoordinator(cfg, c.smap, c.nodes, c.cells)
	if err != nil {
		tb.Fatal(err)
	}
	return fresh
}

// metricValue reads an unlabeled series off reg's snapshot.
func metricValue(tb testing.TB, reg *obs.Registry, name string) float64 {
	tb.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name && len(m.Series) == 1 {
			return m.Series[0].Value
		}
	}
	tb.Fatalf("no series %s", name)
	return 0
}

// TestCoordinatorDecodesEachPartOnce: a coordinator asked the same window
// twice decodes every part the first time and none the second (the
// windows share no part with each other) — its
// explore span says so (parts_decoded, parts_reused), and so do the part
// memo's series on its registry — and both answers are bit for bit the
// answer of a coordinator that decodes every part afresh.
func TestCoordinatorDecodesEachPartOnce(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	reg, tracer := obs.NewRegistry(), obs.NewTracer(16)
	lc := startTestCluster(t, Config{Shards: 2, Obs: reg, Tracer: tracer}, g, snaps)
	ctx := context.Background()
	day := window.From.Add(24 * time.Hour)
	for _, q := range []core.Query{
		{Window: telco.TimeRange{From: day.Add(-4 * time.Hour), To: day.Add(3*time.Hour + 30*time.Minute)}},
		{Window: telco.TimeRange{From: day.Add(5 * time.Hour), To: day.Add(9*time.Hour + 30*time.Minute)}, Box: cellBox(g)},
	} {
		hits := metricValue(t, reg, "spate_cluster_part_cache_hits_total")
		misses := metricValue(t, reg, "spate_cluster_part_cache_misses_total")
		var answers []*Result
		for run := range 2 {
			res, err := lc.Coordinator.Explore(ctx, q)
			if err != nil || res.Partial {
				t.Fatalf("%v: %v (partial %v)", q.Window, err, res != nil && res.Partial)
			}
			root, ok := tracer.Find(res.TraceID)
			if !ok {
				t.Fatal("no trace of the exploration")
			}
			parts, _ := strconv.Atoi(root.Attrs["parts"])
			wantDecoded, wantReused := strconv.Itoa(parts), "0"
			if run == 1 {
				wantDecoded, wantReused = "0", strconv.Itoa(parts)
			}
			if parts == 0 || root.Attrs["parts_decoded"] != wantDecoded || root.Attrs["parts_reused"] != wantReused {
				t.Errorf("%v, run %d: %d parts, %s decoded, %s reused; want %s and %s", q.Window, run, parts,
					root.Attrs["parts_decoded"], root.Attrs["parts_reused"], wantDecoded, wantReused)
			}
			if run == 1 {
				if got := metricValue(t, reg, "spate_cluster_part_cache_misses_total") - misses; got != float64(parts) {
					t.Errorf("%v: the memo missed %v times, want once per part (%d)", q.Window, got, parts)
				}
				if got := metricValue(t, reg, "spate_cluster_part_cache_hits_total") - hits; got != float64(parts) {
					t.Errorf("%v: the memo hit %v times, want once per part (%d)", q.Window, got, parts)
				}
			}
			answers = append(answers, res)
		}
		want, err := freshCoordinator(t, lc.Coordinator).Explore(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for run, got := range answers {
			sameAnswer(t, "run "+strconv.Itoa(run), &got.Result, &want.Result)
			sameHighlights(t, "run "+strconv.Itoa(run), &got.Result, &want.Result)
		}
	}
	if metricValue(t, reg, "spate_cluster_part_cache_bytes") == 0 || metricValue(t, reg, "spate_cluster_part_cache_entries") == 0 {
		t.Error("the part memo reports no bytes or no entries")
	}
}

// TestPartDigestMismatchFailsItsSlot: a replica whose frame sends a part's
// bytes under another part's digest fails like a replica that is down — a
// coordinator that does not hold the digest checks the bytes before it
// decodes them — and leaves nothing in the memo: as its slot's lone
// replica it turns the answer Partial; beside a healthy replica, either
// side, the answer is the healthy one.
func TestPartDigestMismatchFailsItsSlot(t *testing.T) {
	f := newTwoShards(t)
	ctx := context.Background()
	bad := 1
	a, _ := highlights.NewSummary(f.window).Encode()
	b, _ := highlights.NewSummary(telco.TimeRange{From: f.window.From, To: f.window.From.Add(time.Hour)}).Encode()
	replica := f.serve(serveFrame(rawFrameSums(`{"leaves":1}`, [][sha256.Size]byte{sha256.Sum256(a)}, [][]byte{b}, nil, nil)))
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
	c := f.coordinator(topology(replica))
	res, err := c.Explore(ctx, q)
	if err != nil {
		t.Fatalf("a mismatched digest failed the query: %v", err)
	}
	if !res.Partial || res.ShardsFailed != 1 || !strings.Contains(res.Profile.Shards[bad].Error, errPartDigest.Error()) {
		t.Fatalf("partial=%v failed=%d error %q, want shard %d failed on the digest",
			res.Partial, res.ShardsFailed, res.Profile.Shards[bad].Error, bad)
	}
	sum := sha256.Sum256(a)
	if _, ok := c.cl.parts.lru.Get(string(sum[:])); ok {
		t.Error("the memo keeps the mismatched part under the digest it came with")
	}
	for _, replicas := range [][]string{{f.urls[bad], replica}, {replica, f.urls[bad]}} {
		got, err := f.coordinator(topology(replicas...)).Explore(ctx, q)
		if err != nil || got.Partial {
			t.Fatalf("replicas %v: %v (partial %v)", replicas, err, got != nil && got.Partial)
		}
		sameAnswer(t, "beside a healthy replica", &got.Result, &want.Result)
	}
	if _, _, err := newPartMemo(obs.NewNoop()).part(sum[:], b); !errors.Is(err, errPartDigest) {
		t.Errorf("a part under another's digest: %v, want errPartDigest", err)
	}
}

// TestPartMemoRace: explorations share memoized parts while the shards
// append, seal and decay under them. Explorers repeat two windows — one
// of sealed leaves no seal or decay touches, whose answer must never
// change, and one across the day boundary that decay reaches — and once
// the writes stop, the cluster's answer is bit for bit a fresh decode's.
func TestPartMemoRace(t *testing.T) {
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
	// Day 1 from 20:00 through day 2, 04:00.
	head := telco.EpochsPerDay + 8
	appendSnapshots(t, lc, snaps[head-16:head])
	if err := lc.Coordinator.FlushStreams(ctx); err != nil {
		t.Fatal(err)
	}
	stable := core.Query{Window: telco.TimeRange{From: day.Add(time.Hour), To: day.Add(3 * time.Hour)}}
	across := core.Query{Window: telco.TimeRange{From: day.Add(-3 * time.Hour), To: day.Add(3 * time.Hour)}}
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
				q, isStable := stable, (i+n)%2 == 0
				if !isStable {
					q = across
				}
				res, err := lc.Coordinator.Explore(ctx, q)
				if err != nil || res.Partial {
					t.Errorf("explore %v during writes: %v (partial %v)", q.Window, err, res != nil && res.Partial)
					return
				}
				if isStable {
					sameAnswer(t, "the stable window during writes", &res.Result, &want.Result)
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

	for _, q := range []core.Query{stable, across} {
		got, err := lc.Coordinator.Explore(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := freshCoordinator(t, lc.Coordinator).Explore(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "after the writes", &got.Result, &fresh.Result)
	}
}
