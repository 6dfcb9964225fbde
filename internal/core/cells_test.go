package core

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/telco"
)

// The two spatial restrictions the shared CellInventory.Restrict replaced,
// kept as references — verbatim but for reading the summary through its
// accessors and answering series in a comparable form: the engine's (a
// membership set derived once per query, the summary's own attributes shared
// when none are selected) and the coordinator's (its own quad-tree, a fresh
// map per cell).

// flatSeries is a CellSeries with its attributes in a map, comparable with
// reflect.DeepEqual whatever the view aliases.
type flatSeries struct {
	CellID int64
	Loc    geo.Point
	Rows   int64
	Attr   map[highlights.AttrRef]highlights.Stats
}

func attrMap(a highlights.Attrs) map[highlights.AttrRef]highlights.Stats {
	m := make(map[highlights.AttrRef]highlights.Stats, a.Len())
	for i := 0; i < a.Len(); i++ {
		ref, st := a.At(i)
		m[ref] = st
	}
	return m
}

func flatten(cells []CellSeries) []flatSeries {
	var out []flatSeries
	for _, cs := range cells {
		out = append(out, flatSeries{cs.CellID, cs.Loc, cs.Rows, attrMap(cs.Attr)})
	}
	return out
}

func refEngineRestrict(e *Engine, m *highlights.Summary, q Query) (*highlights.Summary, []flatSeries) {
	var inBox map[int64]bool
	out := m
	if q.Box != (geo.Rect{}) {
		inBox = make(map[int64]bool)
		for _, id := range e.Cells().inBox(q.Box) {
			inBox[id] = true
		}
		out = m.Restrict(func(id int64) bool { return inBox[id] })
	}
	want := make(map[highlights.AttrRef]bool, len(q.Attrs))
	for _, a := range q.Attrs {
		want[a] = true
	}
	var cells []flatSeries
	for i := 0; i < m.Cells(); i++ {
		id, rows, num := m.Cell(i)
		if inBox != nil && !inBox[id] {
			continue
		}
		loc, ok := e.Cells().Location(id)
		if !ok {
			continue
		}
		series := flatSeries{CellID: id, Loc: loc, Rows: rows, Attr: attrMap(num)}
		if len(want) > 0 {
			series.Attr = make(map[highlights.AttrRef]highlights.Stats, len(want))
			for ref, st := range attrMap(num) {
				if want[ref] {
					series.Attr[ref] = st
				}
			}
		}
		cells = append(cells, series)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].CellID < cells[j].CellID })
	return out, cells
}

func refCoordRestrict(cellTable *telco.Table, m *highlights.Summary, q Query) (*highlights.Summary, []flatSeries) {
	idIdx := cellTable.Schema.FieldIndex(telco.AttrCellID)
	xIdx := cellTable.Schema.FieldIndex("x_km")
	yIdx := cellTable.Schema.FieldIndex("y_km")
	pts := make(map[int64]geo.Point)
	bounds := geo.NewRect(0, 0, 1, 1)
	for i, r := range cellTable.Rows {
		pt := geo.Point{X: r[xIdx].Float64(), Y: r[yIdx].Float64()}
		pts[r[idIdx].Int64()] = pt
		if i == 0 {
			bounds = geo.NewRect(pt.X, pt.Y, pt.X+1e-6, pt.Y+1e-6)
		} else {
			bounds = bounds.Expand(pt)
		}
	}
	qt := geo.NewQuadTree(bounds, 0)
	for id, pt := range pts {
		qt.Insert(geo.Item{Pt: pt, ID: id, Weight: 1})
	}

	var inBox map[int64]bool
	out := m
	if q.Box != (geo.Rect{}) {
		inBox = make(map[int64]bool)
		for _, it := range qt.Query(q.Box, nil) {
			inBox[it.ID] = true
		}
		out = m.Restrict(func(id int64) bool { return inBox[id] })
	}
	want := make(map[highlights.AttrRef]bool, len(q.Attrs))
	for _, a := range q.Attrs {
		want[a] = true
	}
	var cells []flatSeries
	for i := 0; i < m.Cells(); i++ {
		id, rows, num := m.Cell(i)
		if inBox != nil && !inBox[id] {
			continue
		}
		loc, ok := pts[id]
		if !ok {
			continue
		}
		series := flatSeries{CellID: id, Loc: loc, Rows: rows,
			Attr: make(map[highlights.AttrRef]highlights.Stats)}
		for ref, st := range attrMap(num) {
			if len(want) == 0 || want[ref] {
				series.Attr[ref] = st
			}
		}
		cells = append(cells, series)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].CellID < cells[j].CellID })
	return out, cells
}

// TestCellInventoryRestrictMatchesBothParents: one restriction now serves
// the engine and the coordinator; it must produce exactly what each of
// theirs did — boxed and not, with and without an attribute selection, on
// either leaf-index variant — and share the summary's attributes when
// nothing is selected instead of copying them per cell per query.
func TestCellInventoryRestrictMatchesBothParents(t *testing.T) {
	for _, cellIndex := range []string{"quadtree", "rtree"} {
		r := newRig(t, Options{CellIndex: cellIndex})
		r.ingestEpochs(t, 6)
		w := telco.NewTimeRange(r.cfg.Start, r.cfg.Start.Add(3*time.Hour))
		parts, _, err := r.e.ExploreParts(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		merged := highlights.Merge(w, parts...)
		if merged.Cells() == 0 {
			t.Fatal("merged summary has no cells")
		}
		coordSide, err := NewCellInventory(r.g.CellTable(), "")
		if err != nil {
			t.Fatal(err)
		}

		// The western half of the cell plane.
		pts := coordSide.Points()
		lo, hi := pts[0], pts[0]
		for _, p := range pts {
			lo = geo.Point{X: min(lo.X, p.X), Y: min(lo.Y, p.Y)}
			hi = geo.Point{X: max(hi.X, p.X), Y: max(hi.Y, p.Y)}
		}
		half := geo.NewRect(lo.X, lo.Y, (lo.X+hi.X)/2, hi.Y+1)
		upflux := highlights.AttrRef{Table: "CDR", Attr: telco.AttrUpflux}
		drops := highlights.AttrRef{Table: "NMS", Attr: "drop_calls"}
		for _, q := range []Query{
			{Window: w},
			{Window: w, Box: half},
			{Window: w, Attrs: []highlights.AttrRef{upflux}},
			{Window: w, Box: half, Attrs: []highlights.AttrRef{upflux, drops}},
			{Window: w, Box: geo.NewRect(-9, -9, -8, -8)}, // holds no cell
		} {
			wantSum, wantCells := refEngineRestrict(r.e, merged, q)
			coordSum, coordCells := refCoordRestrict(r.g.CellTable(), merged, q)
			if !reflect.DeepEqual(wantSum, coordSum) || !reflect.DeepEqual(wantCells, coordCells) {
				t.Fatalf("%s %+v: the two parent restrictions disagree with each other", cellIndex, q)
			}
			for name, ci := range map[string]*CellInventory{"engine": r.e.Cells(), "coordinator": coordSide} {
				gotSum, gotCells := ci.Restrict(merged, q.Box, q.Attrs)
				if !reflect.DeepEqual(gotSum, wantSum) {
					t.Errorf("%s %s %+v: restricted summary differs (rows %d, want %d)",
						cellIndex, name, q, gotSum.Rows, wantSum.Rows)
				}
				if !reflect.DeepEqual(flatten(gotCells), wantCells) {
					t.Errorf("%s %s %+v: %d cell series differ from the parents' %d",
						cellIndex, name, q, len(gotCells), len(wantCells))
				}
				if len(q.Attrs) == 0 && len(gotCells) > 0 {
					// The series is a view of the restricted summary's cell,
					// sharing its stats rather than copying them.
					cs := gotCells[0]
					for i := 0; i < gotSum.Cells(); i++ {
						if id, _, num := gotSum.Cell(i); id == cs.CellID && num.Len() > 0 && statsAt(num) != statsAt(cs.Attr) {
							t.Errorf("%s %s: an unselected series copies the summary's attributes", cellIndex, name)
						}
					}
				}
			}
			if q.Box == half && (len(wantCells) == 0 || len(wantCells) >= merged.Cells()) {
				t.Fatalf("the half-plane box keeps %d of %d cells: not a restriction", len(wantCells), merged.Cells())
			}
		}
	}
}

// statsAt is where a view's stats lie in memory.
func statsAt(a highlights.Attrs) uintptr { return reflect.ValueOf(a).Field(1).Pointer() }
