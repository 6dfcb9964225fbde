package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// TestRejectsFlagsThatDoNothing: flag combinations that would configure
// nothing exit non-zero before the server binds or ingests anything. A
// cluster's nodes cache no answers (only rebuilt leaf summaries, each in
// its engine's own cache), so a budget for an answer cache is refused like
// tenants without a limit to scale.
func TestRejectsFlagsThatDoNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-cluster", "-result-cache-bytes", "67108864"},
		{"-join", "http://127.0.0.1:1", "-result-cache-bytes", "1024"},
		{"-tenants", "gold:2"},
	} {
		done := make(chan int, 1)
		go func() { done <- run(append([]string{"-addr", "127.0.0.1:0", "-scale", "0.001"}, args...)) }()
		select {
		case code := <-done:
			if code == 0 {
				t.Errorf("spate-server %s exited 0", strings.Join(args, " "))
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("spate-server %s did not exit: it went on to serve", strings.Join(args, " "))
		}
	}
}

// TestRejectsNegativeChunkSize: a negative -chunk-size once selected legacy
// whole-blob leaves, which no engine writes any more; the server exits
// non-zero naming the flag instead of starting.
func TestRejectsNegativeChunkSize(t *testing.T) {
	var log bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&log, nil)))
	done := make(chan int, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-scale", "0.001", "-chunk-size", "-1"}) }()
	select {
	case code := <-done:
		if code == 0 {
			t.Fatal("spate-server -chunk-size -1 exited 0")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("spate-server -chunk-size -1 did not exit: it went on to serve")
	}
	if !strings.Contains(log.String(), "-chunk-size") {
		t.Errorf("the error does not name the flag: %q", log.String())
	}
}

// TestLookAheadOrder: commits run in order on the caller's goroutine, each
// item is prepared exactly once, and the preparer never runs more than one
// item ahead of the commits.
func TestLookAheadOrder(t *testing.T) {
	const n = 200
	var committed atomic.Int64
	var prepared [n]atomic.Int64
	next := 0
	err := lookAhead(n, func(i int) (func(bool) error, error) {
		if done := int(committed.Load()); i > done+1 {
			t.Errorf("prepare(%d) started with %d commits done: more than one ahead", i, done)
		}
		prepared[i].Add(1)
		return func(commit bool) error {
			if !commit {
				t.Errorf("item %d given up in a run without errors", i)
			}
			if i != next {
				t.Errorf("commit %d ran at position %d", i, next)
			}
			next++
			committed.Add(1)
			return nil
		}, nil
	})
	if err != nil || next != n {
		t.Fatalf("ran %d of %d commits, err %v", next, n, err)
	}
	for i := range prepared {
		if c := prepared[i].Load(); c != 1 {
			t.Errorf("item %d prepared %d times", i, c)
		}
	}
	if err := lookAhead(0, nil); err != nil {
		t.Errorf("empty run: %v", err)
	}
}

// TestLookAheadStopsAtFirstError: an error from either step ends the run
// after the commits before it. Nothing commits past it; no prepare starts
// once the failing step has returned; every item prepared but not committed
// is given up exactly once; and the preparer has wound down by the time
// lookAhead returns.
func TestLookAheadStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, failPrepare := range []bool{true, false} {
		for round := 0; round < 50; round++ {
			var running atomic.Int64
			var commits []int
			var settled [10]atomic.Int64 // +1 per commit, +100 per give-up
			var preparedN atomic.Int64
			err := lookAhead(10, func(i int) (func(bool) error, error) {
				running.Add(1)
				defer running.Add(-1)
				if i > 4 { // item 4 is prepared beside the failing commit of 3
					t.Errorf("failPrepare=%v: prepare(%d) started after the run failed", failPrepare, i)
				}
				if failPrepare && i == 3 {
					return nil, boom
				}
				preparedN.Add(1)
				return func(commit bool) error {
					if !commit {
						settled[i].Add(100)
						return nil
					}
					settled[i].Add(1)
					commits = append(commits, i)
					if !failPrepare && i == 3 {
						return boom
					}
					return nil
				}, nil
			})
			if !errors.Is(err, boom) {
				t.Errorf("failPrepare=%v: err %v", failPrepare, err)
			}
			want := "[0 1 2]"
			if !failPrepare {
				want = "[0 1 2 3]"
			}
			if got := fmt.Sprint(commits); got != want {
				t.Errorf("failPrepare=%v: commits %s, want %s", failPrepare, got, want)
			}
			if r := running.Load(); r != 0 {
				t.Errorf("failPrepare=%v: %d prepares still running after return", failPrepare, r)
			}
			// Every prepared item settled once: committed, or given up.
			var got int64
			for i := range settled {
				switch c := settled[i].Load(); c {
				case 0:
				case 1, 100:
					got++
				default:
					t.Errorf("failPrepare=%v: item %d settled as %d", failPrepare, i, c)
				}
			}
			if got != preparedN.Load() {
				t.Errorf("failPrepare=%v: %d items prepared, %d settled", failPrepare, preparedN.Load(), got)
			}
		}
	}
}

// bootStore ingests snaps into a fresh store — through Ingest, or through
// the boot loader's Prepare/Commit look-ahead — and returns every DFS file
// it holds after FinishIngest, the space report and the ingest error. Leaf
// and summary files come back as their bytes; the gob-encoded journal
// entries come back decoded, because gob writes a map in iteration order
// and equal values need not be equal bytes.
func bootStore(t *testing.T, g *gen.Generator, snaps []*snapshot.Snapshot, ahead bool) (map[string]any, core.SpaceReport, error) {
	t.Helper()
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(fs, g.CellTable(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clone := func(s *snapshot.Snapshot) *snapshot.Snapshot { // ingest sorts tables in place
		out := snapshot.New(s.Epoch)
		for _, name := range s.TableNames() {
			tab := s.Table(name)
			out.Add(&telco.Table{Schema: tab.Schema, Rows: append([]telco.Record(nil), tab.Rows...)})
		}
		return out
	}
	var ingestErr error
	if ahead {
		ingestErr = lookAhead(len(snaps), func(i int) (func(bool) error, error) {
			p, err := eng.Prepare(context.Background(), clone(snaps[i]))
			if err != nil {
				return nil, err
			}
			return func(commit bool) error {
				if !commit {
					eng.Abandon(p)
					return nil
				}
				_, err := eng.Commit(p)
				return err
			}, nil
		})
	} else {
		for _, sn := range snaps {
			if _, ingestErr = eng.Ingest(clone(sn)); ingestErr != nil {
				break
			}
		}
	}
	eng.FinishIngest()
	files := make(map[string]any)
	for _, fi := range fs.List("/") {
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(fi.Path, "/spate/meta/leaf/"):
			var m struct { // core's leaf journal entry
				Epoch               telco.Epoch
				Refs                map[string]string
				RawBytes, CompBytes int64
			}
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
				t.Fatal(err)
			}
			if len(m.Refs) == 0 || m.CompBytes == 0 {
				t.Fatalf("%s decoded to %+v", fi.Path, m)
			}
			files[fi.Path] = m
		default:
			files[fi.Path] = string(data)
		}
	}
	return files, eng.Space(), ingestErr
}

// TestLookAheadIngestMatchesSerial: the boot loader's store is the serial
// one bit for bit — every leaf, every persisted summary and journal entry,
// the space report — across a day boundary (seals), and when the trace
// repeats an epoch: both stop there with the same files, the snapshots the
// loader had already prepared past it leaving nothing behind.
func TestLookAheadIngestMatchesSerial(t *testing.T) {
	cfg := gen.DefaultConfig(0.004)
	cfg.CDRPerEpoch = 150
	g := gen.New(cfg)
	e0 := telco.EpochOf(cfg.Start) + telco.Epoch(telco.EpochsPerDay-6)
	var snaps []*snapshot.Snapshot
	for i := 0; i < 12; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		snaps = append(snaps, sn)
	}
	repeated := append(append([]*snapshot.Snapshot(nil), snaps[:8]...), snaps[5], snaps[8], snaps[9])
	for name, trace := range map[string][]*snapshot.Snapshot{"in order": snaps, "repeated epoch": repeated} {
		want, wantSpace, wantErr := bootStore(t, g, trace, false)
		got, gotSpace, gotErr := bootStore(t, g, trace, true)
		if (wantErr == nil) != (gotErr == nil) || (name == "repeated epoch") != (gotErr != nil) {
			t.Fatalf("%s: serial err %v, look-ahead err %v", name, wantErr, gotErr)
		}
		if gotErr != nil && !strings.Contains(gotErr.Error(), "out of order") {
			t.Errorf("%s: look-ahead err %v", name, gotErr)
		}
		if len(want) < 20 {
			t.Fatalf("%s: serial store holds only %d files", name, len(want))
		}
		for path, data := range want {
			if g, ok := got[path]; !ok || !reflect.DeepEqual(g, data) {
				t.Errorf("%s: %s differs between serial and look-ahead ingest (present %v)", name, path, ok)
			}
		}
		for path := range got {
			if _, ok := want[path]; !ok {
				t.Errorf("%s: look-ahead ingest left %s behind", name, path)
			}
		}
		if gotSpace != wantSpace {
			t.Errorf("%s: Space() = %+v, want %+v", name, gotSpace, wantSpace)
		}
	}
}
