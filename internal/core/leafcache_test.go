package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"spate/internal/decay"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/segment"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// partsRun is one ExploreParts call: its parts' encodings, in order, and
// the profile it accrued.
type partsRun struct {
	enc  [][]byte
	prof Profile
}

func exploreParts(t *testing.T, e *Engine, w telco.TimeRange) partsRun {
	t.Helper()
	ctx, prof := ContextWithProfile(context.Background())
	parts, diag, err := e.ExploreParts(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if diag.ScannedLeaves != prof.LeavesScanned {
		t.Fatalf("diag counts %d rebuilt leaves, the profile %d", diag.ScannedLeaves, prof.LeavesScanned)
	}
	run := partsRun{prof: *prof}
	for _, p := range parts {
		b, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		run.enc = append(run.enc, b)
	}
	return run
}

func sameParts(t *testing.T, what string, got, want partsRun) {
	t.Helper()
	if len(got.enc) != len(want.enc) {
		t.Fatalf("%s: %d parts, want %d", what, len(got.enc), len(want.enc))
	}
	for i := range got.enc {
		if !bytes.Equal(got.enc[i], want.enc[i]) {
			t.Fatalf("%s: part %d encodes differently", what, i)
		}
	}
}

// leafKeysIn returns the result-cache keys of the window's leaves.
func leafKeysIn(e *Engine, w telco.TimeRange) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var keys []string
	for _, n := range e.tree.LeavesIn(w, nil) {
		keys = append(keys, leafKey(n.DataRefs))
	}
	return keys
}

// TestExplorePartsCachesLeaves: a shard exploration that decodes sealed
// leaves' kept summaries keeps them in the result cache, so repeating it
// decodes no leaf and yields byte-identical parts; the entries carry the
// leaf's period and are charged their encoding. Explore leaves no such
// entry behind, and Ingest and FinishIngest drop them.
func TestExplorePartsCachesLeaves(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, telco.EpochsPerDay+4) // day 1 sealed: its leaves keep only their encodings
	w := telco.NewTimeRange(r.cfg.Start.Add(90*time.Minute), r.cfg.Start.Add(5*time.Hour))

	if _, err := r.e.Explore(Query{Window: w}); err != nil {
		t.Fatal(err)
	}
	cold := exploreParts(t, r.e, w)
	if cold.prof.LeavesDecoded == 0 || cold.prof.LeavesCached != 0 || cold.prof.LeavesScanned != 0 {
		t.Fatalf("cold exploration after Explore: %d decoded, %d cached, %d rebuilt; want decodes only",
			cold.prof.LeavesDecoded, cold.prof.LeavesCached, cold.prof.LeavesScanned)
	}
	warm := exploreParts(t, r.e, w)
	if warm.prof.LeavesDecoded != 0 || warm.prof.LeavesCached != cold.prof.LeavesDecoded {
		t.Fatalf("warm exploration: %d decoded, %d cached; want 0 and %d",
			warm.prof.LeavesDecoded, warm.prof.LeavesCached, cold.prof.LeavesDecoded)
	}
	sameParts(t, "warm", warm, cold)
	if warm.prof.ChunksScanned != 0 || warm.prof.InflatedBytes != 0 {
		t.Errorf("warm exploration read %d chunks, %d bytes", warm.prof.ChunksScanned, warm.prof.InflatedBytes)
	}

	keys := leafKeysIn(r.e, w)
	if len(keys) != cold.prof.LeavesDecoded {
		t.Fatalf("%d leaves in the window, %d decoded", len(keys), cold.prof.LeavesDecoded)
	}
	for _, key := range keys {
		ent, ok := r.e.cache.Get(key)
		if !ok {
			t.Fatalf("no cache entry under %q", key)
		}
		s := ent.Summary
		enc, _ := s.Encode()
		unencoded, err := highlights.Decode(enc) // the same summary, no encoding held
		if err != nil {
			t.Fatal(err)
		}
		if ent.ServedPeriod != s.Period || s.EncodedLen() == 0 ||
			ent.SizeBytes() != (&Result{Summary: unencoded}).SizeBytes()+int64(cap(enc)) {
			t.Fatalf("entry %q: served %v for a leaf of %v, %d encoded bytes, sized %d",
				key, ent.ServedPeriod, s.Period, s.EncodedLen(), ent.SizeBytes())
		}
	}

	// A new snapshot clears the cache, leaves included; so does FinishIngest.
	s := snapshot.New(telco.EpochOf(r.cfg.Start) + telco.Epoch(telco.EpochsPerDay+4))
	s.Add(r.g.CDRTable(s.Epoch))
	if _, err := r.e.Ingest(s); err != nil {
		t.Fatal(err)
	}
	afterIngest := exploreParts(t, r.e, w)
	if afterIngest.prof.LeavesDecoded != cold.prof.LeavesDecoded {
		t.Errorf("after Ingest: %d decoded, want %d", afterIngest.prof.LeavesDecoded, cold.prof.LeavesDecoded)
	}
	sameParts(t, "after Ingest", afterIngest, cold)
	exploreParts(t, r.e, w)
	r.e.FinishIngest()
	if got := exploreParts(t, r.e, w); got.prof.LeavesDecoded != cold.prof.LeavesDecoded {
		t.Errorf("after FinishIngest: %d decoded, want %d", got.prof.LeavesDecoded, cold.prof.LeavesDecoded)
	}
}

// TestExplorePartsCacheAfterDecay: a decay run drops the cached summaries
// of the leaves it decays and keeps the others, and a shard exploration
// after it answers what an engine that never cached a leaf answers.
func TestExplorePartsCacheAfterDecay(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, 16) // 8 hours of an open day
	opts := Options{Policy: decay.Policy{KeepRaw: 4 * time.Hour}}
	e := reopen(t, r, opts) // recovered leaves carry no summary: every one rebuilds
	all := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(8*time.Hour))
	old := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(4*time.Hour))
	recent := telco.NewTimeRange(r.cfg.Start.Add(4*time.Hour), all.To)
	oldKeys, recentKeys := leafKeysIn(e, old), leafKeysIn(e, recent)

	if cold := exploreParts(t, e, all); cold.prof.LeavesScanned != 16 {
		t.Fatalf("cold exploration rebuilt %d of 16 leaves", cold.prof.LeavesScanned)
	}
	rep, err := e.DecayRun(all.To, DecayBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeavesDecayed == 0 {
		t.Fatal("nothing decayed")
	}
	for _, key := range oldKeys {
		if _, ok := e.cache.Get(key); ok {
			t.Errorf("decayed leaf %q is still cached", key)
		}
	}
	for _, key := range recentKeys {
		if _, ok := e.cache.Get(key); !ok {
			t.Errorf("leaf %q outside the decayed periods was dropped", key)
		}
	}
	got := exploreParts(t, e, all)
	if got.prof.LeavesScanned != 0 || got.prof.LeavesCached != len(recentKeys) || got.prof.LeavesDecayed != rep.LeavesDecayed {
		t.Errorf("after decay: %d rebuilt, %d cached, %d decayed; want 0, %d, %d",
			got.prof.LeavesScanned, got.prof.LeavesCached, got.prof.LeavesDecayed, len(recentKeys), rep.LeavesDecayed)
	}
	sameParts(t, "after decay", got, exploreParts(t, reopen(t, r, opts), all))
}

// TestLeafFooterReadOnce: a segment leaf's footer is read off the DFS once
// and kept in the chunk cache under "<ref>#foot", so a scan of leaves
// scanned before — their chunks cached too — reads nothing from the DFS.
// A leaf that decays, or that compaction rewrites under a new ref, loses
// its entry with its chunks; every entry left is the footer of a file the
// store holds.
func TestLeafFooterReadOnce(t *testing.T) {
	r := newRig(t, Options{ChunkSize: 256})
	r.ingestEpochs(t, 8)
	e := reopen(t, r, Options{ChunkSize: 256, Policy: decay.Policy{KeepRaw: 2 * time.Hour}})
	w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(4*time.Hour))
	spec := &ScanSpec{Columns: []string{telco.AttrUpflux}}
	scan := func() int {
		t.Helper()
		rows := 0
		err := e.ScanTablesSpec(context.Background(), w, geo.Rect{}, []string{"CDR", "NMS"}, spec, func(_ string, tab *telco.Table) error {
			rows += tab.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	footers := func() map[string][]byte {
		keys := make(map[string][]byte)
		e.chunkCache.DropIf(func(key string, v []byte) bool {
			if ref, ok := strings.CutSuffix(key, footCacheSuffix); ok {
				keys[ref] = v
			}
			return false
		})
		return keys
	}
	// Every cached footer is the one its file holds now.
	current := func(what string, keys map[string][]byte) {
		t.Helper()
		for ref, foot := range keys {
			f, err := r.fs.Open(ref)
			if err != nil {
				t.Fatalf("%s: a footer is cached for %s: %v", what, ref, err)
			}
			want, err := segment.ReadFooter(f, f.Size(), e.Codec())
			if err != nil || !bytes.Equal(foot, want) {
				t.Fatalf("%s: the footer cached for %s is not its file's (%v)", what, ref, err)
			}
		}
	}

	rows := scan()
	cold := footers()
	if len(cold) != 16 { // CDR and NMS of 8 epochs
		t.Fatalf("%d footers cached after the first scan, want 16", len(cold))
	}
	current("first scan", cold)
	read := r.fs.BytesRead()
	if got := scan(); got != rows {
		t.Fatalf("second scan: %d rows, want %d", got, rows)
	}
	if n := r.fs.BytesRead() - read; n != 0 {
		t.Errorf("the second scan read %d bytes off the DFS, want none", n)
	}

	dec, err := e.DecayRun(w.To, DecayBudget{})
	if err != nil || dec.LeavesDecayed == 0 {
		t.Fatalf("decay: %+v, %v", dec, err)
	}
	decayed := footers()
	current("after decay", decayed)
	if len(decayed) >= len(cold) {
		t.Errorf("decay kept all %d footers", len(cold))
	}

	comp, err := e.Compact(context.Background(), CompactOptions{ChunkSize: 1 << 20})
	if err != nil || comp.LeavesRewritten == 0 {
		t.Fatalf("compact: %+v, %v", comp, err)
	}
	compacted := footers()
	current("after compaction", compacted)
	if len(compacted) != 0 {
		t.Errorf("compaction kept %d footers of the files it replaced", len(compacted))
	}
	scan()
	current("after a scan of the compacted leaves", footers())
}
