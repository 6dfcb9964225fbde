package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/telco"
)

// TestKeptSummariesMatchRebuild: sealed leaves answer sub-day windows from
// the summary encodings they keep, and those answers are the ones a store
// that kept none gives by rebuilding the leaves from their data. Over three
// sealed days and seeded random windows, boxes and attribute selections,
// the engine and 1- and 4-shard clusters answer bit for bit what an engine
// reopened over the engine's DFS answers — a fresh one per query, so every
// answer is a rebuild, and one kept open across the queries, so its leaves
// are refilled with the rebuilds' encodings as it goes. The reopened
// engines also extract the engine's highlights: those come from the node
// covering the window, and a reopen keeps the summaries FinishIngest
// sealed on the right-most path.
func TestKeptSummariesMatchRebuild(t *testing.T) {
	g, snaps, window := testTrace(t, 3)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{DataNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	open := func() *core.Engine {
		t.Helper()
		e, err := core.Open(fs, g.CellTable(), core.Options{Obs: obs.NewNoop()})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	eng := open()
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishIngest()
	if sp := eng.Space(); sp.KeptSummaryBytes == 0 {
		t.Fatal("the sealed days' leaves keep no summary encoding")
	}
	refilled := open()
	clusters := map[string]*Local{
		"1-shard": startTestCluster(t, Config{Shards: 1, Obs: obs.NewRegistry()}, g, snaps),
		"4-shard": startTestCluster(t, Config{Shards: 4, Obs: obs.NewRegistry()}, g, snaps),
	}
	box := cellBox(g)
	attrs := highlights.DefaultConfig().CellAttrs
	rng := rand.New(rand.NewSource(34))
	ctx := context.Background()
	var decoded, rebuilt int
	for i := 0; i < 24; i++ {
		from := window.From.Add(time.Duration(rng.Int63n(int64(window.Duration()))) / time.Minute * time.Minute)
		to := from.Add(time.Duration(30+rng.Intn(20*60)) * time.Minute)
		if to.After(window.To) {
			to = window.To
		}
		q := core.Query{Window: telco.TimeRange{From: from, To: to}}
		if rng.Intn(3) > 0 {
			w, h := box.MaxX-box.MinX, box.MaxY-box.MinY
			x, y := box.MinX+rng.Float64()*w, box.MinY+rng.Float64()*h
			q.Box = geo.NewRect(x, y, x+w*(0.1+rng.Float64()/2), y+h*(0.1+rng.Float64()/2))
		}
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				q.Attrs = append(q.Attrs, a)
			}
		}
		what := fmt.Sprintf("query %d (%v, box %v, %d attrs)", i, q.Window, q.Box, len(q.Attrs))

		want, err := open().Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt += want.ScannedLeaves
		got, err := eng.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.ScannedLeaves != 0 {
			t.Errorf("%s: the engine rebuilt %d leaves", what, got.ScannedLeaves)
		}
		decoded += got.Profile.LeavesDecoded
		sameAnswer(t, what+": engine", got, want)
		sameHighlights(t, what+": engine", got, want)
		again, err := refilled.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, what+": refilled engine", again, want)
		sameHighlights(t, what+": refilled engine", again, want)
		for name, lc := range clusters {
			cres, err := lc.Coordinator.Explore(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if cres.Partial {
				t.Fatalf("%s: %s: partial answer", what, name)
			}
			sameAnswer(t, what+": "+name, &cres.Result, want)
		}
	}
	if decoded == 0 || rebuilt == 0 {
		t.Fatalf("the engine decoded %d leaves and the reopened ones rebuilt %d; the windows must lie in sealed days", decoded, rebuilt)
	}
}

// sameHighlights compares two explorations' highlights.
func sameHighlights(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Highlights, want.Highlights) {
		t.Errorf("%s: highlights differ (%d, want %d)", what, len(got.Highlights), len(want.Highlights))
	}
}

// sameAnswer compares two explorations' aggregates bit for bit: the
// summaries by their encodings, the cell series field by field.
func sameAnswer(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	g, _ := got.Summary.Encode()
	w, _ := want.Summary.Encode()
	if !bytes.Equal(g, w) {
		t.Errorf("%s: summaries differ (rows %d, want %d)", what, got.Summary.Rows, want.Summary.Rows)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Errorf("%s: cell series differ (%d cells, want %d)", what, len(got.Cells), len(want.Cells))
	}
}
