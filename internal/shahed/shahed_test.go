package shahed

import (
	"reflect"
	"testing"
	"time"

	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

func newWorld(t *testing.T) (*gen.Generator, *Store, gen.Config) {
	t.Helper()
	cfg := gen.DefaultConfig(0.002)
	cfg.Antennas = 15
	cfg.Users = 100
	cfg.CDRPerEpoch = 60
	cfg.NMSReportsPerCell = 0.5
	g := gen.New(cfg)
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{BlockSize: 1 << 20, DataNodes: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fs, g.CellTable())
	if err != nil {
		t.Fatal(err)
	}
	return g, s, cfg
}

func ingest(t *testing.T, g *gen.Generator, s *Store, start time.Time, n int) int {
	t.Helper()
	rows := 0
	e0 := telco.EpochOf(start)
	for i := 0; i < n; i++ {
		sn := snapshot.New(e0 + telco.Epoch(i))
		sn.Add(g.CDRTable(sn.Epoch))
		sn.Add(g.NMSTable(sn.Epoch))
		rep, err := s.Ingest(sn)
		if err != nil {
			t.Fatal(err)
		}
		rows += rep.Rows
	}
	return rows
}

func TestAggregateMatchesIngest(t *testing.T) {
	g, s, cfg := newWorld(t)
	total := ingest(t, g, s, cfg.Start, 4)
	w := telco.NewTimeRange(cfg.Start, cfg.Start.Add(2*time.Hour))
	sum, err := s.Aggregate(w, geo.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rows != int64(total) {
		t.Errorf("aggregate rows = %d, ingested %d", sum.Rows, total)
	}
}

func TestAggregateSpatialRestriction(t *testing.T) {
	g, s, cfg := newWorld(t)
	ingest(t, g, s, cfg.Start, 2)
	w := telco.NewTimeRange(cfg.Start, cfg.Start.Add(time.Hour))
	all, err := s.Aggregate(w, geo.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	box := geo.NewRect(0, 0, 40, 38)
	sub, err := s.Aggregate(w, box)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows == 0 || sub.Rows >= all.Rows {
		t.Errorf("box rows = %d vs all %d", sub.Rows, all.Rows)
	}
	inBox := map[int64]bool{}
	for _, id := range s.CellsInBox(box) {
		inBox[id] = true
	}
	for i := 0; i < sub.Cells(); i++ {
		if id, _, _ := sub.Cell(i); !inBox[id] {
			t.Errorf("cell %d outside box in aggregate", id)
		}
	}
	var leaves []*highlights.Summary
	for _, l := range s.Tree().LeavesIn(w, nil) {
		leaves = append(leaves, l.Summary)
	}
	want := highlights.Merge(w, leaves...).Restrict(func(id int64) bool { return inBox[id] })
	if !reflect.DeepEqual(sub, want) {
		t.Error("the box aggregate differs from the restricted merge of the window's leaves")
	}
}

func TestLeafSummariesRetainedAcrossDays(t *testing.T) {
	// Unlike SPATE, SHAHED keeps every leaf summary (no decay, no
	// ephemeral drop at day seal).
	g, s, cfg := newWorld(t)
	ingest(t, g, s, cfg.Start, telco.EpochsPerDay+2)
	for _, l := range s.Tree().NodesAtLevel(index.LevelEpoch) {
		if l.Summary == nil {
			t.Fatal("leaf summary missing")
		}
	}
}

func TestScanPrunesByIndex(t *testing.T) {
	g, s, cfg := newWorld(t)
	ingest(t, g, s, cfg.Start, 4)
	w := telco.NewTimeRange(cfg.Start.Add(30*time.Minute), cfg.Start.Add(60*time.Minute))
	before := s.FS().BytesRead()
	rows := 0
	err := s.Scan(w, []string{"CDR"}, func(name string, tab *telco.Table) error {
		rows += tab.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Error("no rows scanned")
	}
	// Index pruning: only the window's snapshot files are read, so bytes
	// read must be well under the full dataset.
	cost := s.FS().BytesRead() - before
	var totalData int64
	for _, fi := range s.FS().List("/shahed/spate/data/") {
		totalData += fi.Size
	}
	if cost >= totalData {
		t.Errorf("scan read %d bytes of %d total: no pruning", cost, totalData)
	}
}

func TestFinishIngestSeals(t *testing.T) {
	g, s, cfg := newWorld(t)
	ingest(t, g, s, cfg.Start, 2)
	s.FinishIngest()
	root := s.Tree().Root()
	if len(root.Children) == 0 || root.Children[0].Summary == nil {
		t.Error("year not sealed")
	}
}

func TestSpaceAccounting(t *testing.T) {
	g, s, cfg := newWorld(t)
	ingest(t, g, s, cfg.Start, 2)
	s.FinishIngest() // seal open periods so the index has summaries
	data, idx := s.Space()
	if data == 0 || idx == 0 {
		t.Errorf("space = %d/%d", data, idx)
	}
}

func TestOpenValidatesCellTable(t *testing.T) {
	fs, err := dfs.NewCluster(t.TempDir(), dfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, telco.NewTable(telco.NMSSchema)); err == nil {
		t.Error("accepted non-CELL table")
	}
}
