package cluster

import (
	"context"
	"strconv"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/obs"
	"spate/internal/telco"
)

// collectSpans walks a span tree and returns every node named name.
func collectSpans(j obs.SpanJSON, name string) []obs.SpanJSON {
	var out []obs.SpanJSON
	if j.Name == name {
		out = append(out, j)
	}
	for _, c := range j.Children {
		out = append(out, collectSpans(c, name)...)
	}
	return out
}

// TestClusterMergedTraceAndProfileParity is the tracing acceptance test: a
// 4-shard exploration must yield ONE coordinator-rooted trace with a remote
// rpc_explore subtree per shard (each carrying the node's scan spans), and
// the merged profile's storage counters must equal a single engine fed the
// same snapshots, bit for bit. The first hour's leaves have decayed, and
// the window starts inside it: the summary plan and the row scan both meet
// those leaves, and each counts once.
func TestClusterMergedTraceAndProfileParity(t *testing.T) {
	g, snaps, window := testTrace(t, 4)
	policy := decay.Policy{KeepRaw: window.To.Sub(window.From) - time.Hour}
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{DataNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewNoop(), Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	if st := eng.Tree().Stats(); st.DecayedLeaves == 0 {
		t.Fatal("the engine decayed no leaf while ingesting")
	}

	// Coordinator and nodes deliberately use SEPARATE tracers: the only way
	// shard spans can appear under the coordinator root is over the RPC
	// trace propagation, as in a real multi-process deployment.
	coordTracer := obs.NewTracer(16)
	nodeTracer := obs.NewTracer(64)
	lc, err := StartLocal(
		Config{Shards: 4, Obs: obs.NewRegistry(), Tracer: coordTracer},
		g.CellTable(),
		LocalOptions{Dir: t.TempDir(), Engine: core.Options{Obs: obs.NewRegistry(), Tracer: nodeTracer, Policy: policy}},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	ctx := context.Background()
	for _, sn := range snaps {
		if err := lc.Coordinator.Ingest(ctx, sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Coordinator.FinishIngest(ctx); err != nil {
		t.Fatal(err)
	}
	// A shard's ingest decays by its own newest data, so the first day's
	// shard runs the engine's decay by hand.
	for _, n := range lc.Nodes {
		if _, err := n.Engine().DecayRun(window.To, core.DecayBudget{}); err != nil {
			t.Fatal(err)
		}
	}

	q := core.Query{Window: telco.TimeRange{From: window.From.Add(15 * time.Minute), To: window.To}, ExactRows: true, Tables: []string{"CDR"}}
	single, err := eng.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := lc.Coordinator.Explore(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Partial {
		t.Fatalf("unexpected partial result: %v", cres.Missing)
	}

	// --- One merged trace, coordinator-rooted. ---
	if cres.TraceID == "" {
		t.Fatal("cluster result carries no trace id")
	}
	root, ok := coordTracer.Find(cres.TraceID)
	if !ok {
		t.Fatalf("trace %s not retrievable from the coordinator tracer", cres.TraceID)
	}
	if root.Name != "cluster_explore" {
		t.Fatalf("trace root = %q, want cluster_explore", root.Name)
	}
	slots := collectSpans(root, "slot_explore")
	if len(slots) != 4 {
		t.Fatalf("trace has %d slot spans, want 4", len(slots))
	}
	remotes := collectSpans(root, "rpc_explore")
	if len(remotes) != 4 {
		t.Fatalf("trace has %d stitched shard subtrees, want 4", len(remotes))
	}
	for _, rm := range remotes {
		if !rm.Remote {
			t.Fatalf("shard subtree not flagged remote: %+v", rm)
		}
		parts := collectSpans(rm, "explore_parts")
		if len(parts) != 1 || len(parts[0].Children) == 0 {
			t.Fatalf("shard subtree carries no scan spans: %+v", rm)
		}
		if len(collectSpans(rm, "row_fetch")) != 1 {
			t.Fatalf("shard subtree missing row_fetch span: %+v", rm)
		}
	}

	// --- Merged profile equals the single engine, bit for bit. ---
	sp, cp := single.Profile, cres.Profile
	if len(cp.Shards) != 4 {
		t.Fatalf("profile has %d shard entries, want 4", len(cp.Shards))
	}
	// The root says how many parts merged; each slot span, and its shard's
	// entry, how large the frame it answered with was and how many rows the
	// coordinator decoded from it.
	if n, err := strconv.Atoi(root.Attrs["parts"]); err != nil || n < 4 {
		t.Errorf("cluster_explore parts=%q, want one or more per shard", root.Attrs["parts"])
	}
	// How many rows the coordinator decoded from that frame, too: together
	// the single engine's rows.
	decoded := 0
	for _, sl := range slots {
		shard, _ := strconv.Atoi(sl.Attrs["shard"])
		fb := cp.Shards[shard].FrameBytes
		if fb == 0 || sl.Attrs["frame_bytes"] != strconv.Itoa(fb) {
			t.Errorf("shard %d: slot span frame_bytes=%q, profile %d", shard, sl.Attrs["frame_bytes"], fb)
		}
		rows := cp.Shards[shard].Rows
		if sl.Attrs["rows"] != strconv.Itoa(rows) {
			t.Errorf("shard %d: slot span rows=%q, profile %d", shard, sl.Attrs["rows"], rows)
		}
		decoded += rows
	}
	if decoded == 0 || decoded != single.Rows["CDR"].Len() {
		t.Errorf("slots decoded %d rows, the single engine has %d", decoded, single.Rows["CDR"].Len())
	}
	type pair struct {
		name      string
		got, want int
	}
	for _, c := range []pair{
		{"LeavesScanned", cp.LeavesScanned, sp.LeavesScanned},
		{"LeavesDecoded", cp.LeavesDecoded, sp.LeavesDecoded},
		{"LeavesDecayed", cp.LeavesDecayed, sp.LeavesDecayed},
		{"ChunksScanned", cp.ChunksScanned, sp.ChunksScanned},
		{"ChunksPrunedZone", cp.ChunksPrunedZone, sp.ChunksPrunedZone},
		{"ChunksPrunedBloom", cp.ChunksPrunedBloom, sp.ChunksPrunedBloom},
		{"CacheHits", cp.CacheHits, sp.CacheHits},
		{"CacheMisses", cp.CacheMisses, sp.CacheMisses},
		{"DFSReads", cp.DFSReads, sp.DFSReads},
	} {
		if c.got != c.want {
			t.Errorf("%s: cluster=%d single=%d", c.name, c.got, c.want)
		}
	}
	if sp.LeavesDecayed == 0 {
		t.Error("the window meets no decayed leaf")
	}
	if sp.LeavesDecoded == 0 {
		t.Error("the window decodes no sealed leaf's kept summary")
	}
	if cp.InflatedBytes != sp.InflatedBytes {
		t.Errorf("InflatedBytes: cluster=%d single=%d", cp.InflatedBytes, sp.InflatedBytes)
	}

	// Shard entries sum to the merged totals.
	var sum core.Profile
	for _, s := range cp.Shards {
		if s.Missing {
			t.Fatalf("healthy run reported a missing shard: %+v", s)
		}
		sum.Add(s.Profile)
	}
	if sum.ChunksScanned != cp.ChunksScanned || sum.InflatedBytes != cp.InflatedBytes {
		t.Errorf("shard profiles do not sum to the merge: sum=%+v merged=%+v", sum, cp)
	}
}

// TestClusterTracePartialShard kills one shard mid-explore: the merged
// trace must mark the missing subtree (annotated, not dropped) while the
// profile sums the surviving shards. The shard dies of an injected fault
// and the survivor keeps the default (generous) deadline, so nothing here
// depends on how fast this box answers.
func TestClusterTracePartialShard(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	coordTracer := obs.NewTracer(16)
	lc, err := StartLocal(
		Config{
			Shards:  2,
			Retries: -1, // fail fast into degradation
			Obs:     obs.NewRegistry(),
			Tracer:  coordTracer,
		},
		g.CellTable(),
		LocalOptions{Dir: t.TempDir(), Engine: core.Options{Obs: obs.NewNoop()}},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	ctx := context.Background()
	for _, sn := range snaps {
		if err := lc.Coordinator.Ingest(ctx, sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Coordinator.FinishIngest(ctx); err != nil {
		t.Fatal(err)
	}

	m := lc.Coordinator.Map()
	day1 := snaps[telco.EpochsPerDay].Epoch
	dead := m.TimeShardOf(day1)
	lc.Node(m.Slot(dead, 0), 0).FailNext(1)

	// Trim the window off the day boundaries so the edges descend to leaf
	// scans — the surviving shard then has profiled storage work to sum.
	w := telco.TimeRange{From: window.From.Add(time.Hour), To: window.To.Add(-time.Hour)}
	res, err := lc.Coordinator.Explore(ctx, core.Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.ShardsFailed != 1 {
		t.Fatalf("partial=%v failed=%d, want one dead shard", res.Partial, res.ShardsFailed)
	}

	root, ok := coordTracer.Find(res.TraceID)
	if !ok {
		t.Fatalf("partial trace %s not retained", res.TraceID)
	}
	if attr := root.Attrs["partial"]; attr != "true" {
		t.Errorf("root not annotated partial: %v", root.Attrs)
	}
	slots := collectSpans(root, "slot_explore")
	if len(slots) != 2 {
		t.Fatalf("trace kept %d slot spans, want 2 (missing subtree dropped?)", len(slots))
	}
	var missing, healthy int
	for _, s := range slots {
		if s.Attrs["missing"] == "true" {
			missing++
			if s.Error == "" {
				t.Errorf("missing slot span carries no error: %+v", s)
			}
		} else {
			healthy++
		}
	}
	if missing != 1 || healthy != 1 {
		t.Fatalf("missing=%d healthy=%d slot spans, want 1/1", missing, healthy)
	}

	// The profile annotates the dead shard and sums only the survivors.
	if len(res.Profile.Shards) != 2 {
		t.Fatalf("profile shard entries = %d, want 2", len(res.Profile.Shards))
	}
	var sum core.Profile
	var missingEntries int
	for _, s := range res.Profile.Shards {
		if s.Missing {
			missingEntries++
			if s.Error == "" {
				t.Errorf("missing shard entry carries no error: %+v", s)
			}
			continue
		}
		sum.Add(s.Profile)
	}
	if missingEntries != 1 {
		t.Fatalf("profile marks %d shards missing, want 1", missingEntries)
	}
	if sum.LeavesScanned != res.Profile.LeavesScanned || sum.LeavesCached != res.Profile.LeavesCached ||
		sum.LeavesDecoded != res.Profile.LeavesDecoded || sum.ChunksScanned != res.Profile.ChunksScanned {
		t.Errorf("surviving shards do not sum to the merged profile: sum=%+v merged=%+v", sum, res.Profile)
	}
	// A surviving shard's edge leaves were decoded from their kept
	// encodings, or taken from its leaf cache when an earlier exploration
	// decoded them.
	if res.Profile.LeavesDecoded+res.Profile.LeavesCached == 0 {
		t.Error("partial profile counts no surviving work")
	}
}
