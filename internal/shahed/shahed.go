// Package shahed implements the SHAHED baseline of the paper's evaluation
// (§VII-A): the spatio-temporal aggregate index of SHAHED (Eldawy et al.,
// ICDE 2015), isolated from SpatialHadoop — a temporal hierarchy whose
// nodes carry spatial aggregate summaries over **uncompressed** data, with
// no compression and no decaying. It is "appropriate for online querying
// and visualization" and serves as the state-of-the-art response-time
// yardstick that SPATE matches with an order of magnitude less storage.
package shahed

import (
	"fmt"
	"time"

	"spate/internal/dfs"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// Store is a SHAHED-style ingestion target.
type Store struct {
	fs    *dfs.Cluster
	tree  *index.Tree
	cfg   highlights.Config
	cells map[int64]geo.Point
	cellQ *geo.QuadTree
}

// Open creates a SHAHED store over a cluster with the cell inventory.
func Open(fs *dfs.Cluster, cellTable *telco.Table) (*Store, error) {
	s := &Store{
		fs:    fs,
		tree:  index.New(),
		cfg:   highlights.DefaultConfig(),
		cells: make(map[int64]geo.Point),
	}
	idIdx := cellTable.Schema.FieldIndex(telco.AttrCellID)
	xIdx := cellTable.Schema.FieldIndex("x_km")
	yIdx := cellTable.Schema.FieldIndex("y_km")
	if idIdx < 0 || xIdx < 0 || yIdx < 0 {
		return nil, fmt.Errorf("shahed: cell table %q lacks cell_id/x_km/y_km", cellTable.Schema.Name)
	}
	bounds := geo.NewRect(0, 0, 1, 1)
	first := true
	for _, r := range cellTable.Rows {
		pt := geo.Point{X: r[xIdx].Float64(), Y: r[yIdx].Float64()}
		s.cells[r[idIdx].Int64()] = pt
		if first {
			bounds = geo.NewRect(pt.X, pt.Y, pt.X+1e-6, pt.Y+1e-6)
			first = false
		} else {
			bounds = bounds.Expand(pt)
		}
	}
	s.cellQ = geo.NewQuadTree(bounds)
	for id, pt := range s.cells {
		s.cellQ.Insert(geo.Item{Pt: pt, ID: id})
	}
	if !fs.Exists("/shahed/meta/CELL") {
		if err := fs.WriteFile("/shahed/meta/CELL", []byte(cellTable.Text())); err != nil {
			return nil, fmt.Errorf("shahed: persist cell table: %w", err)
		}
	}
	return s, nil
}

// FS returns the underlying cluster.
func (s *Store) FS() *dfs.Cluster { return s.fs }

// Tree exposes the temporal aggregate index.
func (s *Store) Tree() *index.Tree { return s.tree }

// Report describes one SHAHED ingestion.
type Report struct {
	Epoch     telco.Epoch
	Rows      int
	Bytes     int64
	IndexTime time.Duration
	Total     time.Duration
}

func dataPath(e telco.Epoch, table string) string {
	return "/shahed" + snapshot.DataPath(e, table)
}

// Ingest stores each table uncompressed and updates the aggregate index
// (temporal tree + per-node spatial summaries).
func (s *Store) Ingest(snap *snapshot.Snapshot) (Report, error) {
	start := time.Now()
	rep := Report{Epoch: snap.Epoch, Rows: snap.Rows()}
	refs := make(map[string]string)
	period := telco.TimeRange{From: snap.Epoch.Start(), To: snap.Epoch.End()}
	sum := highlights.NewSummary(period)
	for _, name := range snap.TableNames() {
		text, err := snap.EncodeTable(name)
		if err != nil {
			return rep, fmt.Errorf("shahed: encode %s: %w", name, err)
		}
		path := dataPath(snap.Epoch, name)
		if err := s.fs.WriteFile(path, text); err != nil {
			return rep, fmt.Errorf("shahed: store %s: %w", name, err)
		}
		refs[name] = path
		rep.Bytes += int64(len(text))
		sum.AddTable(s.cfg, snap.Table(name))
	}
	tIndex := time.Now()
	leaf, completed, err := s.tree.Append(snap.Epoch, refs, rep.Bytes, rep.Bytes)
	if err != nil {
		return rep, err
	}
	leaf.Summary = sum
	for _, n := range completed {
		s.seal(n)
	}
	rep.IndexTime = time.Since(tIndex)
	rep.Total = time.Since(start)
	return rep, nil
}

// seal merges child summaries into a completed node. SHAHED keeps every
// resolution's aggregates (no decay, no eviction of leaf summaries).
func (s *Store) seal(n *index.Node) {
	parts := make([]*highlights.Summary, 0, len(n.Children))
	for _, c := range n.Children {
		parts = append(parts, c.Summary)
	}
	n.Summary = highlights.Merge(n.Period, parts...)
}

// FinishIngest seals the open right-most path.
func (s *Store) FinishIngest() {
	for _, n := range s.tree.FinishIngest() {
		s.seal(n)
	}
}

// CellsInBox returns cell IDs located inside box.
func (s *Store) CellsInBox(box geo.Rect) []int64 {
	items := s.cellQ.Query(box, nil)
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

// Aggregate answers a spatio-temporal aggregate query from the index: the
// merged summary of the window (leaf summaries, since SHAHED retains all of
// them), restricted to the box's cells.
func (s *Store) Aggregate(w telco.TimeRange, box geo.Rect) (*highlights.Summary, error) {
	leaves := s.tree.LeavesIn(w, nil)
	if len(leaves) == 0 {
		return highlights.NewSummary(w), nil
	}
	parts := make([]*highlights.Summary, 0, len(leaves))
	for _, l := range leaves {
		parts = append(parts, l.Summary)
	}
	merged := highlights.Merge(w, parts...)
	if box == (geo.Rect{}) {
		return merged, nil
	}
	inBox := make(map[int64]bool)
	for _, id := range s.CellsInBox(box) {
		inBox[id] = true
	}
	return merged.Restrict(func(id int64) bool { return inBox[id] }), nil
}

// Scan reads the window's snapshots (pruned by the temporal index, unlike
// RAW) and invokes fn per table. Data is uncompressed text.
func (s *Store) Scan(w telco.TimeRange, tables []string, fn func(string, *telco.Table) error) error {
	want := func(name string) bool {
		if len(tables) == 0 {
			return true
		}
		for _, t := range tables {
			if t == name {
				return true
			}
		}
		return false
	}
	for _, leaf := range s.tree.LeavesIn(w, nil) {
		for name, ref := range leaf.DataRefs {
			if !want(name) {
				continue
			}
			data, err := s.fs.ReadFile(ref)
			if err != nil {
				return fmt.Errorf("shahed: read %s: %w", ref, err)
			}
			tab, err := snapshot.DecodeTable(name, data)
			if err != nil {
				return fmt.Errorf("shahed: decode %s: %w", ref, err)
			}
			filtered := telco.NewTable(tab.Schema)
			tsIdx := tab.Schema.FieldIndex(telco.AttrTS)
			for _, r := range tab.Rows {
				if tsIdx < 0 || r[tsIdx].IsNull() || w.Contains(r[tsIdx].Time()) {
					filtered.Rows = append(filtered.Rows, r)
				}
			}
			if filtered.Len() == 0 {
				continue
			}
			if err := fn(name, filtered); err != nil {
				return err
			}
		}
	}
	return nil
}

// Space returns the bytes SHAHED occupies (logical, pre-replication),
// including an estimate of its aggregate index.
func (s *Store) Space() (data, idx int64) {
	for _, fi := range s.fs.List("/shahed/") {
		data += fi.Size
	}
	st := s.tree.Stats()
	return data, st.SummaryBytes
}
