package lifecycle_test

import (
	"strings"
	"testing"
	"time"

	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/lifecycle"
	"spate/internal/obs"
	"spate/internal/segment/segmenttest"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// rig is a generated world, an engine over a temp DFS, and the pieces a
// lifecycle test needs to fault and inspect it.
type rig struct {
	g   *gen.Generator
	e   *core.Engine
	fs  *dfs.Cluster
	cfg gen.Config
}

func newRig(t *testing.T, opts core.Options) *rig {
	t.Helper()
	cfg := gen.DefaultConfig(0.004)
	cfg.Antennas = 30
	cfg.Users = 300
	cfg.CDRPerEpoch = 120
	cfg.NMSReportsPerCell = 0.8
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Open(fs, g.CellTable(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{g: g, e: e, fs: fs, cfg: cfg}
}

func (r *rig) ingestEpochs(t *testing.T, n int) {
	t.Helper()
	e0 := telco.EpochOf(r.cfg.Start)
	for i := 0; i < n; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(r.g.CDRTable(s.Epoch))
		s.Add(r.g.NMSTable(s.Epoch))
		if _, err := r.e.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
}

// storeAsBlobs rewrites every stored leaf file as a legacy whole-blob
// leaf, the form older writers left behind and compaction converts.
func (r *rig) storeAsBlobs(t *testing.T) {
	t.Helper()
	for _, fi := range r.fs.List("/spate/data/") {
		data, err := r.fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := segmenttest.Blob(data, r.e.Codec())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.fs.Delete(fi.Path); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.WriteFile(fi.Path, blob); err != nil {
			t.Fatal(err)
		}
	}
}

func jobStatus(st lifecycle.Status, name string) lifecycle.JobStatus {
	for _, j := range st.Jobs {
		if j.Name == name {
			return j
		}
	}
	return lifecycle.JobStatus{}
}

// TestScheduledDecayRuns is the scheduler acceptance: a manager with a
// decay interval performs sweeps on its own clock (against an injected
// "months later" now) and records what each sweep did.
func TestScheduledDecayRuns(t *testing.T) {
	r := newRig(t, core.Options{Policy: decay.Policy{KeepRaw: 2 * time.Hour}})
	r.ingestEpochs(t, 8) // 4 hours
	now := telco.EpochOf(r.cfg.Start).Start().Add(24 * time.Hour)

	m := lifecycle.New(r.e, lifecycle.Config{
		DecayInterval: 10 * time.Millisecond,
		Jitter:        -1, // deterministic cadence
		Now:           func() time.Time { return now },
		Obs:           obs.NewNoop(),
	})
	m.Start()
	defer m.Close()

	deadline := time.Now().Add(10 * time.Second)
	var js lifecycle.JobStatus
	for {
		js = jobStatus(m.Status(), lifecycle.JobDecay)
		if js.Runs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no scheduled decay run; status %+v", m.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if js.LastRun == nil || js.LastRun.Err != "" {
		t.Fatalf("last run = %+v", js.LastRun)
	}
	if js.LastRun.Details["leaves_decayed"] == 0 || js.LastRun.Details["bytes_freed"] == 0 {
		t.Errorf("first sweep details = %v, want decayed leaves and freed bytes", js.LastRun.Details)
	}
	if st := r.e.Tree().Stats(); st.DecayedLeaves == 0 {
		t.Error("scheduler ran but no leaves decayed")
	}
	// Scrub and compact were configured without intervals: manual-only.
	if got := jobStatus(m.Status(), lifecycle.JobScrub).Interval; got != 0 {
		t.Errorf("scrub interval = %v, want 0", got)
	}
}

// TestScrubRestoresClusterHealth is the ISSUE acceptance path: with an
// injected corrupt replica AND a killed datanode, a triggered scrub
// quarantines the damage, restores full replication, and a follow-up
// explore answers exactly what it answered before the faults.
func TestScrubRestoresClusterHealth(t *testing.T) {
	r := newRig(t, core.Options{})
	r.ingestEpochs(t, 4)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))
	want, err := r.e.Explore(core.Query{Window: w, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}

	files := r.fs.List("/spate/data/")
	if len(files) == 0 {
		t.Fatal("no data files")
	}
	m := lifecycle.New(r.e, lifecycle.Config{Obs: obs.NewNoop()})

	// Round one: a corrupt replica. The scrub quarantines it and re-copies
	// from the healthy replica.
	corruptNode, err := r.fs.CorruptBlock(files[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.Trigger(lifecycle.JobScrub)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Details["corrupt_replicas"] != 1 {
		t.Errorf("scrub details = %v, want 1 corrupt replica", rec.Details)
	}
	if rec.Details["replicas_restored"] == 0 || rec.Details["unrecoverable"] != 0 {
		t.Errorf("scrub details = %v, want restored replicas and no unrecoverable blocks", rec.Details)
	}

	// Round two: a dead datanode. With full replication restored above, no
	// block can lose both copies, and the scrub re-replicates everything
	// the node held onto the survivors.
	if err := r.fs.KillNode((corruptNode + 1) % 3); err != nil {
		t.Fatal(err)
	}
	if r.fs.UnderReplicated() == 0 {
		t.Fatal("rig broken: killing a node left nothing under-replicated")
	}
	rec, err = m.Trigger(lifecycle.JobScrub)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Details["replicas_restored"] == 0 || rec.Details["unrecoverable"] != 0 {
		t.Errorf("scrub details = %v, want restored replicas and no unrecoverable blocks", rec.Details)
	}
	if n := r.fs.UnderReplicated(); n != 0 {
		t.Fatalf("%d blocks under-replicated after scrub", n)
	}

	r.e.ClearCache() // force the explore through repaired storage
	got, err := r.e.Explore(core.Query{Window: w, ExactRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.Rows != want.Summary.Rows {
		t.Errorf("post-repair rows = %d, want %d", got.Summary.Rows, want.Summary.Rows)
	}
	for name, wt := range want.Rows {
		if gt := got.Rows[name]; gt == nil || gt.Len() != wt.Len() {
			t.Errorf("%s: row count changed across repair", name)
		}
	}
}

// TestTriggerCompactConvertsBlobs drives the compactor through the manager
// and checks the run record the UI will render.
func TestTriggerCompactConvertsBlobs(t *testing.T) {
	r := newRig(t, core.Options{})
	r.ingestEpochs(t, 3)
	r.storeAsBlobs(t)
	m := lifecycle.New(r.e, lifecycle.Config{Obs: obs.NewNoop()})

	rec, err := m.Trigger(lifecycle.JobCompact)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Details["blobs_converted"] == 0 || rec.Details["leaves_rewritten"] != 3 {
		t.Fatalf("compact details = %v", rec.Details)
	}
	rec2, err := m.Trigger(lifecycle.JobCompact)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Details["leaves_rewritten"] != 0 {
		t.Errorf("second sweep rewrote %d leaves", rec2.Details["leaves_rewritten"])
	}
}

// TestPauseTriggerAndHistory covers the operator surface: pause gates the
// schedule but not Trigger, unknown jobs fail with the roster, the history
// ring stays bounded newest-first, and a closed manager refuses work.
func TestPauseTriggerAndHistory(t *testing.T) {
	r := newRig(t, core.Options{})
	r.ingestEpochs(t, 1)
	m := lifecycle.New(r.e, lifecycle.Config{History: 3, Obs: obs.NewNoop()})
	m.Start() // no intervals: nothing schedules, Start is harmless

	if _, err := m.Trigger("defrag"); err == nil || !strings.Contains(err.Error(), "defrag") {
		t.Fatalf("unknown job error = %v", err)
	}

	if st, err := m.Act("pause", ""); err != nil || !st.(lifecycle.Status).Paused || !m.Status().Paused {
		t.Fatalf("pause answered %+v, %v; status not paused", st, err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Trigger(lifecycle.JobScrub); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	if js := jobStatus(st, lifecycle.JobScrub); js.Runs != 5 || js.Errors != 0 {
		t.Fatalf("scrub job status = %+v", js)
	}
	if len(st.History) != 3 {
		t.Fatalf("history holds %d records, want ring of 3", len(st.History))
	}
	for _, h := range st.History {
		if h.Job != lifecycle.JobScrub {
			t.Errorf("history entry for %q", h.Job)
		}
	}
	if !st.History[0].Start.After(st.History[2].Start) && st.History[0].Start != st.History[2].Start {
		t.Error("history not newest-first")
	}
	if _, err := m.Act("resume", ""); err != nil || m.Status().Paused {
		t.Fatalf("resume did not lift pause (%v)", err)
	}
	if rec, err := m.Act("trigger", lifecycle.JobScrub); err != nil || rec.(lifecycle.RunRecord).Job != lifecycle.JobScrub {
		t.Fatalf("trigger answered %+v, %v", rec, err)
	}
	if _, err := m.Act("defrag", ""); err == nil {
		t.Fatal("unknown action accepted")
	}

	m.Close()
	if _, err := m.Trigger(lifecycle.JobScrub); err == nil {
		t.Fatal("closed manager accepted a trigger")
	}
	m.Close() // idempotent
}
