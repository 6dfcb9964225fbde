package core

import (
	"fmt"

	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/telco"
)

// CellInventory is the static CELL table as queries need it: where each
// cell is, which cells a box holds, and the spatial step of Q(a, b, w) —
// a merged window summary narrowed to the box plus the per-cell view a
// heatmap renders. An engine and a cluster coordinator hold one each and
// restrict through it, which is why their answers agree bit for bit. It is
// immutable once built.
type CellInventory struct {
	pts map[int64]geo.Point
	idx *geo.QuadTree
}

// NewCellInventory reads the CELL table (cell_id, x_km, y_km) and indexes
// the cells with a quad-tree, the leaf spatial index of §V-A.
func NewCellInventory(cellTable *telco.Table) (*CellInventory, error) {
	idIdx := cellTable.Schema.FieldIndex(telco.AttrCellID)
	xIdx := cellTable.Schema.FieldIndex("x_km")
	yIdx := cellTable.Schema.FieldIndex("y_km")
	if idIdx < 0 || xIdx < 0 || yIdx < 0 {
		return nil, fmt.Errorf("core: cell table %q lacks cell_id/x_km/y_km", cellTable.Schema.Name)
	}
	ci := &CellInventory{pts: make(map[int64]geo.Point, len(cellTable.Rows))}
	bounds := geo.NewRect(0, 0, 1, 1)
	for i, r := range cellTable.Rows {
		pt := geo.Point{X: r[xIdx].Float64(), Y: r[yIdx].Float64()}
		ci.pts[r[idIdx].Int64()] = pt
		if i == 0 {
			bounds = geo.NewRect(pt.X, pt.Y, pt.X+1e-6, pt.Y+1e-6)
		} else {
			bounds = bounds.Expand(pt)
		}
	}
	ci.idx = geo.NewQuadTree(bounds)
	for id, pt := range ci.pts {
		ci.idx.Insert(geo.Item{Pt: pt, ID: id})
	}
	return ci, nil
}

// Location returns a cell's planar location.
func (ci *CellInventory) Location(id int64) (geo.Point, bool) {
	pt, ok := ci.pts[id]
	return pt, ok
}

// Points returns every cell's location, in no particular order (a shard
// map reads the plane's extent off them).
func (ci *CellInventory) Points() []geo.Point {
	out := make([]geo.Point, 0, len(ci.pts))
	for _, pt := range ci.pts {
		out = append(out, pt)
	}
	return out
}

// inBox returns the IDs of the cells located inside box.
func (ci *CellInventory) inBox(box geo.Rect) []int64 {
	items := ci.idx.Query(box, nil)
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

// boxSet is inBox with its membership set; the zero box ("everywhere") has
// none.
func (ci *CellInventory) boxSet(box geo.Rect) (ids []int64, set map[int64]bool) {
	if box == (geo.Rect{}) {
		return nil, nil
	}
	ids = ci.inBox(box)
	set = make(map[int64]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return ids, set
}

// Restrict is the spatial step of a query: the merged window summary m
// narrowed to the cells inside box (m itself for the zero box) and the
// per-cell series of those cells in cell-id order, each carrying the
// attributes named by attrs (all of them when attrs is empty). Every
// series is a view of the one returned summary and shares its attribute
// dictionary, a selection's copy included.
func (ci *CellInventory) Restrict(m *highlights.Summary, box geo.Rect, attrs []highlights.AttrRef) (*highlights.Summary, []CellSeries) {
	_, inBox := ci.boxSet(box)
	out := m
	if inBox != nil {
		out = m.Restrict(func(id int64) bool { return inBox[id] })
	}
	// The series are views into the restricted summary, already in cell-id
	// order; an attribute selection narrows each into a copy.
	cells := make([]CellSeries, 0, out.Cells())
	for i := 0; i < out.Cells(); i++ {
		id, rows, num := out.Cell(i)
		loc, ok := ci.pts[id]
		if !ok {
			continue
		}
		if len(attrs) > 0 {
			num = num.Only(attrs)
		}
		cells = append(cells, CellSeries{CellID: id, Loc: loc, Rows: rows, Attr: num})
	}
	return out, cells
}
