package cluster

import (
	"context"
	"testing"

	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/lifecycle"
	"spate/internal/obs"
)

// TestClusterLifecycleSweeps is the fleet-maintenance acceptance path: a
// coordinator fans lifecycle status probes and scrub runs out to every
// shard node, a corrupt replica and a killed shard-local datanode are both
// repaired, and exploration stays non-Partial throughout.
func TestClusterLifecycleSweeps(t *testing.T) {
	g, snaps, window := testTrace(t, 2)
	lc, err := StartLocal(Config{Shards: 2, Obs: obs.NewRegistry()}, g.CellTable(), LocalOptions{
		Dir:       t.TempDir(),
		Engine:    core.Options{Obs: obs.NewNoop()},
		DFS:       dfs.Config{DataNodes: 3, Replication: 2, BlockSize: 1 << 20},
		Lifecycle: &lifecycle.Config{Obs: obs.NewNoop()}, // no intervals: manual fan-outs only
	})
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

	// Every node reports its maintenance roster over the RPC surface.
	st, err := lc.Coordinator.Lifecycle(ctx, "status", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 || st.Partial || len(st.Nodes) != 2 {
		t.Fatalf("status sweep %+v", st)
	}
	for _, nl := range st.Nodes {
		if nl.Status == nil || len(nl.Status.Jobs) != 3 {
			t.Fatalf("node %s status %+v", nl.URL, nl.Status)
		}
	}

	// Fault round one: corrupt a replica inside shard 0's DFS, then run a
	// fleet-wide scrub. Only the damaged shard should report repairs.
	fs := lc.Node(0, 0).Engine().FS()
	files := fs.List("/spate/data/")
	if len(files) == 0 {
		t.Fatal("shard 0 holds no data files")
	}
	if _, err := fs.CorruptBlock(files[0].Path); err != nil {
		t.Fatal(err)
	}
	sweep, err := lc.Coordinator.Lifecycle(ctx, "trigger", lifecycle.JobScrub)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Failed != 0 || sweep.Partial {
		t.Fatalf("scrub sweep degraded: %+v", sweep)
	}
	var corrupt, restored, unrecov int64
	for _, nl := range sweep.Nodes {
		if nl.Record == nil {
			t.Fatalf("node %s returned no run record", nl.URL)
		}
		corrupt += nl.Record.Details["corrupt_replicas"]
		restored += nl.Record.Details["replicas_restored"]
		unrecov += nl.Record.Details["unrecoverable"]
	}
	if corrupt != 1 || restored == 0 || unrecov != 0 {
		t.Fatalf("fleet scrub totals: corrupt=%d restored=%d unrecoverable=%d", corrupt, restored, unrecov)
	}

	// Fault round two: kill a shard-local datanode. Replication was just
	// restored, so every block it held still has a live copy; the next
	// fleet scrub re-replicates them all.
	if err := fs.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if fs.UnderReplicated() == 0 {
		t.Fatal("rig broken: killing a datanode left nothing under-replicated")
	}
	sweep, err = lc.Coordinator.Lifecycle(ctx, "trigger", lifecycle.JobScrub)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Failed != 0 || sweep.Partial {
		t.Fatalf("scrub sweep degraded: %+v", sweep)
	}
	restored, unrecov = 0, 0
	for _, nl := range sweep.Nodes {
		restored += nl.Record.Details["replicas_restored"]
		unrecov += nl.Record.Details["unrecoverable"]
	}
	if restored == 0 || unrecov != 0 {
		t.Fatalf("fleet scrub totals after node death: restored=%d unrecoverable=%d", restored, unrecov)
	}
	if n := fs.UnderReplicated(); n != 0 {
		t.Fatalf("%d blocks under-replicated after fleet scrub", n)
	}

	// The repaired cluster answers exploration whole, through storage.
	lc.Node(0, 0).Engine().ClearCache()
	res, err := lc.Coordinator.Explore(ctx, core.Query{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Summary == nil || res.Summary.Rows == 0 {
		t.Fatalf("post-repair explore partial=%v summary=%+v", res.Partial, res.Summary)
	}

	// Pause and resume propagate fleet-wide.
	ps, err := lc.Coordinator.Lifecycle(ctx, "pause", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, nl := range ps.Nodes {
		if nl.Status == nil || !nl.Status.Paused {
			t.Fatalf("node %s not paused: %+v", nl.URL, nl.Status)
		}
	}
	ps, err = lc.Coordinator.Lifecycle(ctx, "resume", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, nl := range ps.Nodes {
		if nl.Status == nil || nl.Status.Paused {
			t.Fatalf("node %s still paused: %+v", nl.URL, nl.Status)
		}
	}

	// An unknown job fails on every node, which the fan-out surfaces as an
	// error rather than an empty sweep.
	if _, err := lc.Coordinator.Lifecycle(ctx, "trigger", "defrag"); err == nil {
		t.Fatal("unknown job fan-out did not error")
	}
}
