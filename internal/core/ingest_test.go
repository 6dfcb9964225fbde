package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"spate/internal/compress"
	"spate/internal/dfs"
	"spate/internal/obs"
	"spate/internal/segment"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// countingCodec is gzip with a count of the Compress calls made through it.
type countingCodec struct {
	compress.Codec
	calls atomic.Int64
}

func (c *countingCodec) Compress(dst, src []byte) []byte {
	c.calls.Add(1)
	return c.Codec.Compress(dst, src)
}

// TestIngestCompressesEachChunkOnce: a whole ingest hands the block codec
// every chunk it writes exactly once — no trial layouts — plus each v3
// segment's footer.
func TestIngestCompressesEachChunkOnce(t *testing.T) {
	gz, err := compress.Lookup("gzip")
	if err != nil {
		t.Fatal(err)
	}
	codec := &countingCodec{Codec: gz}
	r := newRig(t, Options{Codec: codec, ChunkSize: 8 << 10}) // several chunks per CDR leaf
	r.cfg.Start = r.cfg.Start.Add(10 * telco.EpochDuration * 2)
	atOpen := codec.calls.Load() // the CELL table
	r.ingestEpochs(t, 6)
	calls := codec.calls.Load() - atOpen

	var chunks, segments int64
	for _, fi := range r.fs.List("/spate/data/") {
		f, err := r.fs.Open(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := segment.Open(f, f.Size(), gz)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range sr.Chunks() {
			if ch.RowMajor() {
				t.Errorf("%s: a freshly written chunk took the legacy row-text layout", fi.Path)
			}
		}
		chunks += int64(sr.NumChunks())
		segments++
	}
	if segments != 12 || chunks <= 2*segments {
		t.Fatalf("%d segments of %d chunks: want 12 leaf files of several chunks", segments, chunks)
	}
	if calls != chunks+segments {
		t.Errorf("%d Compress calls for %d chunks + %d footers, want one each (%d)", calls, chunks, segments, chunks+segments)
	}
}

// TestPrepareCommit: Ingest is Commit(Prepare(s)), a prepared snapshot waits
// while its predecessor commits, and nothing reaches the store before
// Commit — so a snapshot that fails to prepare, or whose epoch turns out to
// be taken by the time it commits, leaves no file behind.
func TestPrepareCommit(t *testing.T) {
	ctx := context.Background()
	serial := newRig(t, Options{})
	reg, tr := obs.NewRegistry(), obs.NewTracer(16)
	ahead := newRig(t, Options{Obs: reg, Tracer: tr})
	snaps := epochSnapshots(serial, 5)
	for _, sn := range snaps[:4] {
		if _, err := serial.e.Ingest(cloneSnap(sn)); err != nil {
			t.Fatal(err)
		}
	}

	files := func(r *testRig) map[string]any { return storeContents(t, r.fs) }

	// Epoch 1 is prepared before epoch 0 commits, and so on down the trace.
	next, err := ahead.e.Prepare(ctx, cloneSnap(snaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	before := len(files(ahead))
	for i := 1; i <= 4; i++ {
		cur := next
		if i < 4 {
			if next, err = ahead.e.Prepare(ctx, cloneSnap(snaps[i])); err != nil {
				t.Fatal(err)
			}
			if n := len(files(ahead)); n != before {
				t.Fatalf("Prepare of epoch %d wrote %d files", i, n-before)
			}
		}
		rep, err := ahead.e.Commit(cur)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Epoch != snaps[i-1].Epoch || rep.Rows != snaps[i-1].Rows() || rep.CompBytes == 0 {
			t.Fatalf("commit %d reported %+v", i-1, rep)
		}
		before = len(files(ahead))
	}
	if got, want := files(ahead), files(serial); !reflect.DeepEqual(got, want) {
		t.Errorf("look-ahead store differs from the serial one: %d vs %d files", len(got), len(want))
	}
	if got, want := ahead.e.Space(), serial.e.Space(); got != want {
		t.Errorf("Space() = %+v, want %+v", got, want)
	}

	// A row wider than its table's schema fails in Prepare.
	want := files(ahead)
	bad := snapshot.New(snaps[4].Epoch)
	bad.Add(snaps[4].Table("CDR"))
	bad.Add(&telco.Table{Schema: telco.MustSchema("BAD", []telco.Field{{Name: "x", Kind: telco.KindInt}}),
		Rows: []telco.Record{{telco.String("a|b"), telco.Int(1)}}})
	if _, err := ahead.e.Prepare(ctx, bad); err == nil || !strings.Contains(err.Error(), "BAD") {
		t.Fatalf("Prepare of a malformed table: %v", err)
	}
	// An epoch prepared twice commits once.
	p1, err := ahead.e.Prepare(ctx, cloneSnap(snaps[4]))
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order arrivals are turned away before any work is done.
	if _, err := ahead.e.Prepare(ctx, cloneSnap(snaps[2])); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("Prepare of a past epoch: %v", err)
	}
	p2, err := ahead.e.Prepare(ctx, cloneSnap(snaps[4]))
	if err != nil {
		t.Fatal(err)
	}
	// A prepared snapshot that is given up ends its trace and counts as a
	// failed ingest.
	p0, err := ahead.e.Prepare(ctx, cloneSnap(snaps[4]))
	if err != nil {
		t.Fatal(err)
	}
	failedIngests := reg.Counter("spate_ingest_errors_total", "")
	traces, failures := len(tr.Traces()), failedIngests.Value()
	ahead.e.Abandon(p0)
	if got := len(tr.Traces()); got != traces+1 || failedIngests.Value() != failures+1 {
		t.Errorf("Abandon: %d traces (were %d), %d failed ingests (were %d)", got, traces, failedIngests.Value(), failures)
	}
	if got := files(ahead); !reflect.DeepEqual(got, want) {
		t.Fatal("failed, pending and abandoned Prepares changed the store")
	}
	if _, err := ahead.e.Commit(p1); err != nil {
		t.Fatal(err)
	}
	want = files(ahead)
	if _, err := ahead.e.Commit(p2); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("second Commit of one epoch: %v", err)
	}
	if got := files(ahead); !reflect.DeepEqual(got, want) {
		t.Error("a rejected Commit left files behind")
	}

	// A finalized store turns both steps away.
	p3, err := serial.e.Prepare(ctx, cloneSnap(snaps[4]))
	if err != nil {
		t.Fatal(err)
	}
	serial.e.FinishIngest()
	if _, err := serial.e.Commit(p3); !errors.Is(err, ErrFinalized) {
		t.Errorf("Commit on a finalized store: %v", err)
	}
	if _, err := serial.e.Prepare(ctx, cloneSnap(snaps[4])); !errors.Is(err, ErrFinalized) {
		t.Errorf("Prepare on a finalized store: %v", err)
	}
}

// storeContents reads every DFS file into a comparable value: leaf and
// summary bytes as they are, gob-encoded journal entries decoded (gob writes
// a map in iteration order, so equal values need not be equal bytes).
func storeContents(t *testing.T, fs *dfs.Cluster) map[string]any {
	t.Helper()
	out := make(map[string]any)
	for _, fi := range fs.List("/") {
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(fi.Path, "/spate/meta/leaf/"):
			var m leafMeta
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
				t.Fatal(err)
			}
			out[fi.Path] = m
		default:
			out[fi.Path] = string(data)
		}
	}
	return out
}

// cloneSnap copies a snapshot's tables so two engines can each sort their
// own.
func cloneSnap(s *snapshot.Snapshot) *snapshot.Snapshot {
	out := snapshot.New(s.Epoch)
	for _, name := range s.TableNames() {
		tab := s.Table(name)
		out.Add(&telco.Table{Schema: tab.Schema, Rows: append([]telco.Record(nil), tab.Rows...)})
	}
	return out
}
