package spate_test

import (
	"testing"
	"time"

	"spate"
)

// TestPublicAPILifecycle exercises the facade end-to-end the way a
// downstream user would: cluster, generator, ingest, explore, SQL,
// privacy, analytics and decay — one integration pass over every exported
// surface.
func TestPublicAPILifecycle(t *testing.T) {
	fs, err := spate.NewCluster(t.TempDir(), spate.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spate.GeneratorConfig(0.002)
	cfg.Antennas = 15
	cfg.Users = 100
	cfg.CDRPerEpoch = 60
	cfg.NMSReportsPerCell = 0.5
	g := spate.NewGenerator(cfg)

	eng, err := spate.Open(fs, g.CellTable(), spate.Options{
		Policy: spate.DecayPolicy{KeepRaw: 2 * time.Hour},
		Fungus: spate.EvictOldestIndividuals{},
	})
	if err != nil {
		t.Fatal(err)
	}

	start := g.Config().Start
	first := spate.EpochOf(start)
	for e := first; e < first+8; e++ { // 4 hours
		s := spate.NewSnapshot(e)
		s.Add(g.CDRTable(e))
		s.Add(g.NMSTable(e))
		rep, err := eng.Ingest(s)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CompBytes >= rep.RawBytes {
			t.Fatal("no compression")
		}
	}

	// Exploration with box and window.
	res, err := eng.Explore(spate.Query{
		Box:    spate.NewRect(0, 0, 80, 75),
		Window: spate.NewTimeRange(start, start.Add(4*time.Hour)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rows == 0 || len(res.Cells) == 0 {
		t.Fatal("empty exploration")
	}

	// Decay happened under the 2h policy.
	if eng.Tree().Stats().DecayedLeaves == 0 {
		t.Error("no leaves decayed")
	}

	// SPATE-SQL over the store.
	sql := spate.NewSQL(eng)
	rs, err := sql.Query(`SELECT call_type, COUNT(*) AS n FROM CDR GROUP BY call_type ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 || rs.Cols[1] != "n" {
		t.Fatalf("sql = %+v", rs)
	}

	// Privacy-aware sharing of recent rows.
	recent, err := eng.Explore(spate.Query{
		Window:    spate.NewTimeRange(start.Add(3*time.Hour), start.Add(4*time.Hour)),
		ExactRows: true, Tables: []string{"CDR"},
	})
	if err != nil {
		t.Fatal(err)
	}
	quasi := []string{"caller", "cell_id", "duration"}
	anon, prep, err := spate.Anonymize(recent.Rows["CDR"], spate.PrivacyOptions{K: 3, QuasiIdentifiers: quasi})
	if err != nil {
		t.Fatal(err)
	}
	if prep.ReleasedRows == 0 {
		t.Fatal("nothing released")
	}
	if min, _ := spate.VerifyK(anon, quasi); min < 3 {
		t.Errorf("k-anonymity violated: %d", min)
	}

	// Parallel analytics over exact rows.
	pool := spate.NewPool(2)
	var rows [][]float64
	for _, r := range recent.Rows["CDR"].Rows {
		rows = append(rows, []float64{
			r.Get(recent.Rows["CDR"].Schema, "duration").Float64(),
			r.Get(recent.Rows["CDR"].Schema, "downflux").Float64(),
		})
	}
	stats, err := spate.ColStatsOf(pool, rows)
	if err != nil || len(stats) != 2 {
		t.Fatalf("ColStatsOf: %v", err)
	}
	if km, err := spate.KMeans(pool, rows, 2, 10); err != nil || len(km.Centers) != 2 {
		t.Fatalf("KMeans: %v", err)
	}

	// The engine stores through gzip unless a caller supplies a codec.
	if got := eng.Codec().Name(); got != "gzip" {
		t.Errorf("default codec = %q, want gzip", got)
	}

	// Space accounting.
	sp := eng.Space()
	if sp.RawBytes == 0 || sp.CompBytes == 0 || sp.O1 <= 0 {
		t.Errorf("space = %+v", sp)
	}
}

// TestFacadeLevelsAndConstants pins the re-exported constants.
func TestFacadeLevelsAndConstants(t *testing.T) {
	if spate.EpochDuration != 30*time.Minute {
		t.Error("EpochDuration changed")
	}
	levels := []spate.Level{spate.LevelRoot, spate.LevelYear, spate.LevelMonth, spate.LevelDay, spate.LevelEpoch}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Error("levels not ordered")
		}
	}
}
