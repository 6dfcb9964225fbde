package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"spate/internal/decay"
	"spate/internal/highlights"
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

// TestExplorePartsCachesLeaves: a shard exploration that rebuilds leaf
// summaries keeps them in the result cache, so repeating it rebuilds no
// leaf and yields byte-identical parts; the entries carry the leaf's period
// and are charged their encoding. Explore leaves no such entry behind, and
// Ingest and FinishIngest drop them.
func TestExplorePartsCachesLeaves(t *testing.T) {
	r := newRig(t, Options{})
	r.ingestEpochs(t, telco.EpochsPerDay+4) // day 1 sealed: its leaves lost their summaries
	w := telco.NewTimeRange(r.cfg.Start.Add(90*time.Minute), r.cfg.Start.Add(5*time.Hour))

	if _, err := r.e.Explore(Query{Window: w}); err != nil {
		t.Fatal(err)
	}
	cold := exploreParts(t, r.e, w)
	if cold.prof.LeavesScanned == 0 || cold.prof.LeavesCached != 0 {
		t.Fatalf("cold exploration after Explore: %d rebuilt, %d cached; want rebuilds only",
			cold.prof.LeavesScanned, cold.prof.LeavesCached)
	}
	warm := exploreParts(t, r.e, w)
	if warm.prof.LeavesScanned != 0 || warm.prof.LeavesCached != cold.prof.LeavesScanned {
		t.Fatalf("warm exploration: %d rebuilt, %d cached; want 0 and %d",
			warm.prof.LeavesScanned, warm.prof.LeavesCached, cold.prof.LeavesScanned)
	}
	sameParts(t, "warm", warm, cold)
	if warm.prof.ChunksScanned != 0 || warm.prof.InflatedBytes != 0 {
		t.Errorf("warm exploration read %d chunks, %d bytes", warm.prof.ChunksScanned, warm.prof.InflatedBytes)
	}

	keys := leafKeysIn(r.e, w)
	if len(keys) != cold.prof.LeavesScanned {
		t.Fatalf("%d leaves in the window, %d rebuilt", len(keys), cold.prof.LeavesScanned)
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
	if afterIngest.prof.LeavesScanned != cold.prof.LeavesScanned {
		t.Errorf("after Ingest: %d rebuilt, want %d", afterIngest.prof.LeavesScanned, cold.prof.LeavesScanned)
	}
	sameParts(t, "after Ingest", afterIngest, cold)
	exploreParts(t, r.e, w)
	r.e.FinishIngest()
	if got := exploreParts(t, r.e, w); got.prof.LeavesScanned != cold.prof.LeavesScanned {
		t.Errorf("after FinishIngest: %d rebuilt, want %d", got.prof.LeavesScanned, cold.prof.LeavesScanned)
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
