package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spate/internal/dfs"
	"spate/internal/snapshot"
	"spate/internal/telco"
	"spate/internal/wal"
)

// streamOpts are fast test defaults: no fsync, tight group window.
func streamOpts(t *testing.T) StreamerOptions {
	t.Helper()
	return StreamerOptions{WALDir: t.TempDir(), Sync: wal.SyncNone, GroupWindow: time.Millisecond}
}

// openStreamer opens a streamer on the rig's engine, closed with the test.
func openStreamer(t *testing.T, r *testRig, opts StreamerOptions) *Streamer {
	t.Helper()
	st, err := r.e.OpenStreamer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// epochSnapshots materializes n epochs of the rig's generated world.
func epochSnapshots(r *testRig, n int) []*snapshot.Snapshot {
	e0 := telco.EpochOf(r.cfg.Start)
	snaps := make([]*snapshot.Snapshot, 0, n)
	for i := 0; i < n; i++ {
		s := snapshot.New(e0 + telco.Epoch(i))
		s.Add(r.g.CDRTable(s.Epoch))
		s.Add(r.g.NMSTable(s.Epoch))
		snaps = append(snaps, s)
	}
	return snaps
}

// appendSnapshot streams every table of a snapshot through Append, rows in
// table order — the arrival order a batch ingest implies.
func appendSnapshot(t *testing.T, st *Streamer, sn *snapshot.Snapshot) {
	t.Helper()
	for _, name := range sn.TableNames() {
		tab := sn.Table(name)
		if err := st.Append(context.Background(), name, tab.Rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamSealParityWithBatchIngest is the tentpole invariant: sealing a
// streamed epoch produces segments bit-for-bit identical to a batch
// ingest of the same rows — same DFS files, same bytes, same answers.
func TestStreamSealParityWithBatchIngest(t *testing.T) {
	const epochs = 3
	batch := newRig(t, Options{})
	for _, sn := range epochSnapshots(batch, epochs) {
		if _, err := batch.e.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}

	streamed := newRig(t, Options{}) // same gen config -> identical rows
	st := openStreamer(t, streamed, streamOpts(t))
	for _, sn := range epochSnapshots(streamed, epochs) {
		appendSnapshot(t, st, sn)
	}
	if err := st.SealAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Memtable().Rows() != 0 {
		t.Fatalf("memtable holds %d rows after SealAll", st.Memtable().Rows())
	}

	assertStoresEqual(t, batch.fs, streamed.fs)

	// And the query surface agrees.
	w := telco.NewTimeRange(batch.cfg.Start, batch.cfg.Start.Add(epochs*30*time.Minute))
	rb, err := batch.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := streamed.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Summary.Rows != rs.Summary.Rows || len(rb.Cells) != len(rs.Cells) {
		t.Errorf("batch (%d rows, %d cells) != streamed (%d rows, %d cells)",
			rb.Summary.Rows, len(rb.Cells), rs.Summary.Rows, len(rs.Cells))
	}
}

// TestStreamQueryBeforeSeal: appended rows answer queries immediately,
// before any epoch seals, and the profile reports the memtable's share.
func TestStreamQueryBeforeSeal(t *testing.T) {
	r := newRig(t, Options{})
	st := openStreamer(t, r, streamOpts(t))
	sn := epochSnapshots(r, 1)[0]
	total := int64(sn.Rows())
	appendSnapshot(t, st, sn)

	// No seal happened: the engine's tree is still empty.
	if r.e.Snapshots() != 0 {
		t.Fatalf("tree has %d leaves before seal", r.e.Snapshots())
	}
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(30*time.Minute))
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows != total {
		t.Errorf("summary rows = %d, want %d", res.Summary.Rows, total)
	}
	if res.Profile.MemEpochs == 0 {
		t.Error("profile reports no memtable epochs")
	}
	// Exact rows come from the memtable too.
	res, err = r.e.Explore(Query{Window: w, ExactRows: true, Tables: []string{"NMS"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows["NMS"] == nil || res.Rows["NMS"].Len() == 0 {
		t.Fatal("no exact rows before seal")
	}
	if res.Profile.MemRows == 0 {
		t.Error("profile reports no memtable rows on the exact-row path")
	}
	if res.Rows["NMS"].Len() != sn.Table("NMS").Len() {
		t.Errorf("exact rows = %d, want %d", res.Rows["NMS"].Len(), sn.Table("NMS").Len())
	}
}

// TestStreamRowBefore1970: a row appended at 1969-12-31T23:45 belongs to
// the epoch from 23:30, so a [23:30, 24:00) window finds it in the
// memtable and again once its epoch has sealed.
func TestStreamRowBefore1970(t *testing.T) {
	r := newRig(t, Options{})
	st := openStreamer(t, r, streamOpts(t))
	e0 := telco.EpochOf(r.cfg.Start)
	row := slices.Clone(r.g.NMSTable(e0).Rows[0])
	at := time.Date(1969, 12, 31, 23, 45, 0, 0, time.UTC)
	row[telco.NMSSchema.FieldIndex(telco.AttrTS)] = telco.Time(at)
	if err := st.Append(context.Background(), "NMS", []telco.Record{row}); err != nil {
		t.Fatal(err)
	}
	w := telco.NewTimeRange(time.Date(1969, 12, 31, 23, 30, 0, 0, time.UTC), time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC))
	count := func(when string) {
		t.Helper()
		n := 0
		err := r.e.ScanTablesContext(context.Background(), w, []string{"NMS"}, func(_ string, tab *telco.Table) error {
			n += tab.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("%s: the window holds %d rows, want the one appended", when, n)
		}
	}
	count("before the seal")
	if err := st.SealAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.e.Snapshots(); got != 1 {
		t.Fatalf("sealed %d leaves, want 1", got)
	}
	count("after the seal")
}

// TestStreamFreshRowsInvalidateCache: a cached answer must not mask rows
// appended after it was cached.
func TestStreamFreshRowsInvalidateCache(t *testing.T) {
	r := newRig(t, Options{})
	st := openStreamer(t, r, streamOpts(t))
	sn := epochSnapshots(r, 1)[0]
	nms := sn.Table("NMS")
	half := nms.Len() / 2
	if err := st.Append(context.Background(), "NMS", nms.Rows[:half]); err != nil {
		t.Fatal(err)
	}
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(30*time.Minute))
	res1, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(context.Background(), "NMS", nms.Rows[half:]); err != nil {
		t.Fatal(err)
	}
	res2, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Error("stale cache hit after fresh appends")
	}
	if res2.Summary.Rows != int64(nms.Len()) || res2.Summary.Rows <= res1.Summary.Rows {
		t.Errorf("rows after second append = %d (first %d, want %d)",
			res2.Summary.Rows, res1.Summary.Rows, nms.Len())
	}
}

// TestStreamCrashRecoveryReplay: rows appended but not sealed survive a
// crash via WAL replay — explorable again right after reopen, and sealing
// then matches a batch ingest.
func TestStreamCrashRecoveryReplay(t *testing.T) {
	r := newRig(t, Options{})
	walDir := t.TempDir()
	st, err := r.e.OpenStreamer(StreamerOptions{WALDir: walDir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	snaps := epochSnapshots(r, 2)
	for _, sn := range snaps {
		appendSnapshot(t, st, sn)
	}
	// Seal the first epoch only; the second stays buffered.
	e0 := telco.EpochOf(r.cfg.Start)
	if err := st.SealTo(context.Background(), e0); err != nil {
		t.Fatal(err)
	}
	if r.e.Snapshots() != 1 {
		t.Fatalf("sealed %d leaves, want 1", r.e.Snapshots())
	}
	// "Crash": close the streamer without sealing the rest.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover: fresh engine over the same DFS, streamer over the same WAL.
	e2 := reopen(t, r, Options{})
	st2, err := e2.OpenStreamer(StreamerOptions{WALDir: walDir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := st2.Memtable().Rows(), int64(snaps[1].Rows()); got != want {
		t.Fatalf("replayed %d rows, want %d (epoch 0 must not double-replay)", got, want)
	}
	// The replayed rows answer queries before sealing...
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(time.Hour))
	res, err := e2.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(snaps[0].Rows() + snaps[1].Rows())
	if res.Summary.Rows != want {
		t.Errorf("recovered explore rows = %d, want %d", res.Summary.Rows, want)
	}
	// ...and seal into leaves identical to a batch ingest of the trace.
	if err := st2.SealAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	batch := newRig(t, Options{})
	for _, sn := range epochSnapshots(batch, 2) {
		if _, err := batch.e.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	assertStoresEqual(t, batch.fs, r.fs)
}

// assertStoresEqual compares two DFS stores: data leaves and index
// summaries must match bit-for-bit; gob leaf metas are compared decoded,
// because gob writes map fields in nondeterministic order.
func assertStoresEqual(t *testing.T, want, got *dfs.Cluster) {
	t.Helper()
	wFiles := want.List("/spate/")
	gFiles := got.List("/spate/")
	if len(wFiles) == 0 || len(wFiles) != len(gFiles) {
		t.Fatalf("file count: want store %d, got store %d", len(wFiles), len(gFiles))
	}
	for _, fi := range wFiles {
		wb, err := want.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := got.ReadFile(fi.Path)
		if err != nil {
			t.Fatalf("store lacks %s: %v", fi.Path, err)
		}
		switch {
		case strings.HasPrefix(fi.Path, "/spate/meta/leaf/"):
			var wm, gm leafMeta
			if err := gob.NewDecoder(bytes.NewReader(wb)).Decode(&wm); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewDecoder(bytes.NewReader(gb)).Decode(&gm); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wm, gm) {
				t.Errorf("%s: leaf meta differs:\n  want %+v\n  got  %+v", fi.Path, wm, gm)
			}
		default:
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s differs: %d vs %d bytes", fi.Path, len(gb), len(wb))
			}
		}
	}
}

// TestStreamBackpressure: an unsealed backlog over MaxPending fails
// further appends with the typed sentinel once the wait expires.
func TestStreamBackpressure(t *testing.T) {
	r := newRig(t, Options{})
	opts := streamOpts(t)
	opts.MaxPending = 16 << 10
	opts.BackpressureWait = 20 * time.Millisecond
	st := openStreamer(t, r, opts)

	sn := epochSnapshots(r, 1)[0]
	rows := sn.Table("CDR").Rows // one CDR table is itself over the bound
	// Fill the backlog past the bound (single trailing epoch: the sealer
	// will not relieve it), then expect the typed refusal.
	var err error
	for i := 0; i < 50 && err == nil; i++ {
		err = st.Append(context.Background(), "CDR", rows)
	}
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	// Relief: seal everything, then small appends of newer epochs flow.
	if err := st.SealAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	next := epochSnapshots(r, 2)[1]
	if err := st.Append(context.Background(), "NMS", next.Table("NMS").Rows); err != nil {
		t.Fatalf("append after seal relief: %v", err)
	}
}

// TestStreamStaleEpochRejected: rows of an already-sealed epoch are
// refused all-or-nothing with the typed sentinel.
func TestStreamStaleEpochRejected(t *testing.T) {
	r := newRig(t, Options{})
	st := openStreamer(t, r, streamOpts(t))
	snaps := epochSnapshots(r, 2)
	appendSnapshot(t, st, snaps[0])
	if err := st.SealAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := st.Append(context.Background(), "NMS", snaps[0].Table("NMS").Rows)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch", err)
	}
	if st.Memtable().Rows() != 0 {
		t.Errorf("stale batch left %d rows in the memtable", st.Memtable().Rows())
	}
	// Newer epochs still flow.
	if err := st.Append(context.Background(), "NMS", snaps[1].Table("NMS").Rows); err != nil {
		t.Fatal(err)
	}
}

// TestStreamBatchIngestAdvancesWatermark: a batch Ingest that lands
// AFTER the streamer opened (a cluster node bulk-loaded post-open) still
// closes its epochs to streamed writes — rows for them reject as stale
// instead of stranding in the memtable where no seal could ever land
// them behind the existing leaves.
func TestStreamBatchIngestAdvancesWatermark(t *testing.T) {
	r := newRig(t, Options{})
	st := openStreamer(t, r, streamOpts(t)) // watermark unset: engine empty
	snaps := epochSnapshots(r, 2)
	if _, err := r.e.Ingest(snaps[0]); err != nil {
		t.Fatal(err)
	}
	err := st.Append(context.Background(), "NMS", snaps[0].Table("NMS").Rows)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch", err)
	}
	if st.Memtable().Rows() != 0 {
		t.Errorf("stale batch left %d rows in the memtable", st.Memtable().Rows())
	}
	// The next epoch flows and seals cleanly on top of the batch leaf.
	appendSnapshot(t, st, snaps[1])
	if err := st.SealAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.e.Snapshots(); got != 2 {
		t.Fatalf("sealed %d leaves, want 2", got)
	}
}

// TestStreamSealerAdvancesWithDataTime: rows of a later epoch seal every
// earlier one automatically; the trailing epoch stays open and queryable.
func TestStreamSealerAdvancesWithDataTime(t *testing.T) {
	r := newRig(t, Options{})
	st := openStreamer(t, r, streamOpts(t))
	snaps := epochSnapshots(r, 3)
	for _, sn := range snaps {
		appendSnapshot(t, st, sn)
	}
	// Epochs 0 and 1 must seal (data time moved past them); epoch 2 stays.
	deadline := time.Now().Add(5 * time.Second)
	for r.e.Snapshots() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.e.Snapshots(); got != 2 {
		t.Fatalf("sealed %d leaves, want 2", got)
	}
	// The sealer drops an epoch's memtable copy only after its leaf is
	// visible, so the row count trails the leaf count: poll it as well.
	want2 := int64(snaps[2].Rows())
	for st.Memtable().Rows() != want2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := st.Memtable().Rows(); got != want2 {
		t.Errorf("trailing epoch holds %d rows, want %d", got, want2)
	}
	// The whole window still answers: sealed leaves + open memtable epoch.
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(90*time.Minute))
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(snaps[0].Rows() + snaps[1].Rows() + snaps[2].Rows())
	if res.Summary.Rows != want {
		t.Errorf("explore rows = %d, want %d", res.Summary.Rows, want)
	}
}

// TestStreamWALPurgedAfterSeal: sealed epochs leave no WAL behind once
// their segments close.
func TestStreamWALPurgedAfterSeal(t *testing.T) {
	r := newRig(t, Options{})
	opts := streamOpts(t)
	opts.SegmentBytes = 32 << 10 // rotate often so sealed segments close
	st := openStreamer(t, r, opts)
	for _, sn := range epochSnapshots(r, 3) {
		appendSnapshot(t, st, sn)
	}
	if err := st.SealAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	segs := st.log.Segments()
	if len(segs) != 1 || !segs[0].Active {
		t.Errorf("segments after SealAll = %+v, want only the active one", segs)
	}
}

// TestStreamErrFinalized: the typed finalize sentinel gates both the batch
// ingest path and streamer open.
func TestStreamErrFinalized(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 1)
	r.e.FinishIngest()
	sn := epochSnapshots(r, 2)[1]
	if _, err := r.e.Ingest(sn); !errors.Is(err, ErrFinalized) {
		t.Errorf("Ingest after finish = %v, want ErrFinalized", err)
	}
	if _, err := r.e.OpenStreamer(streamOpts(t)); !errors.Is(err, ErrFinalized) {
		t.Errorf("OpenStreamer after finish = %v, want ErrFinalized", err)
	}
}

// TestStreamDoubleOpenRejected: one streamer per engine.
func TestStreamDoubleOpenRejected(t *testing.T) {
	r := newRig(t, Options{})
	openStreamer(t, r, streamOpts(t))
	if _, err := r.e.OpenStreamer(streamOpts(t)); err == nil {
		t.Fatal("second OpenStreamer accepted")
	}
}

// TestStreamConcurrentAppendExploreSeal exercises the writer, sealer and
// query paths together; run under -race it is the memtable/streamer
// synchronization proof.
func TestStreamConcurrentAppendExploreSeal(t *testing.T) {
	r := newRig(t, Options{})
	st := openStreamer(t, r, streamOpts(t))
	snaps := epochSnapshots(r, 4)
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(2*time.Hour))

	stop := make(chan struct{})
	errc := make(chan error, 8)
	// Appender: streams all four epochs in chunks.
	appDone := make(chan struct{})
	go func() {
		defer close(appDone)
		for _, sn := range snaps {
			for _, name := range sn.TableNames() {
				rows := sn.Table(name).Rows
				for i := 0; i < len(rows); i += 32 {
					end := i + 32
					if end > len(rows) {
						end = len(rows)
					}
					if err := st.Append(context.Background(), name, rows[i:end]); err != nil {
						errc <- fmt.Errorf("append: %w", err)
						return
					}
				}
			}
		}
	}()
	var readers sync.WaitGroup
	// Explorers: hammer the window while rows move memtable -> leaves.
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// "no data ingested" is legitimate until the first append
				// lands; anything else is a bug.
				if _, err := r.e.Explore(Query{Window: w}); err != nil &&
					!strings.Contains(err.Error(), "no data ingested") {
					errc <- fmt.Errorf("explore: %w", err)
					return
				}
			}
		}()
	}
	// Scanner: exact-row path concurrently.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := r.e.ScanTablesContext(context.Background(), w, []string{"NMS"},
				func(string, *telco.Table) error { return nil })
			if err != nil {
				errc <- fmt.Errorf("scan: %w", err)
				return
			}
		}
	}()

	// Wait for the appender, then stop the readers and seal everything.
	select {
	case err := <-errc:
		close(stop)
		readers.Wait()
		t.Fatal(err)
	case <-appDone:
	}
	close(stop)
	readers.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := st.SealAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sn := range snaps {
		total += sn.Rows()
	}
	res, err := r.e.Explore(Query{Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows != int64(total) {
		t.Errorf("final rows = %d, want %d", res.Summary.Rows, total)
	}
}
