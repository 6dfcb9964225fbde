package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"spate/internal/gen"
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
	qt := geo.NewQuadTree(bounds)
	for id, pt := range pts {
		qt.Insert(geo.Item{Pt: pt, ID: id})
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
// theirs did — boxed and not, with and without an attribute selection —
// and share the summary's attributes when nothing is selected instead of
// copying them per cell per query.
func TestCellInventoryRestrictMatchesBothParents(t *testing.T) {
	r := newRig(t, Options{})
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
	coordSide, err := NewCellInventory(r.g.CellTable())
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
			t.Fatalf("%+v: the two parent restrictions disagree with each other", q)
		}
		for name, ci := range map[string]*CellInventory{"engine": r.e.Cells(), "coordinator": coordSide} {
			gotSum, gotCells := ci.Restrict(merged, q.Box, q.Attrs)
			if !reflect.DeepEqual(gotSum, wantSum) {
				t.Errorf("%s %+v: restricted summary differs (rows %d, want %d)",
					name, q, gotSum.Rows, wantSum.Rows)
			}
			if !reflect.DeepEqual(flatten(gotCells), wantCells) {
				t.Errorf("%s %+v: %d cell series differ from the parents' %d",
					name, q, len(gotCells), len(wantCells))
			}
			if len(q.Attrs) == 0 && len(gotCells) > 0 {
				// The series is a view of the restricted summary's cell,
				// sharing its stats rather than copying them.
				cs := gotCells[0]
				for i := 0; i < gotSum.Cells(); i++ {
					if id, _, num := gotSum.Cell(i); id == cs.CellID && num.Len() > 0 && statsAt(num) != statsAt(cs.Attr) {
						t.Errorf("%s: an unselected series copies the summary's attributes", name)
					}
				}
			}
		}
		if q.Box == half && (len(wantCells) == 0 || len(wantCells) >= merged.Cells()) {
			t.Fatalf("the half-plane box keeps %d of %d cells: not a restriction", len(wantCells), merged.Cells())
		}
	}
}

// statsAt is where a view's stats lie in memory.
func statsAt(a highlights.Attrs) uintptr { return reflect.ValueOf(a).Field(1).Pointer() }

// TestCellInventoryInBoxMatchesScan: over the generator's cell table, the
// inventory's quad-tree answers a box with exactly the cells a scan of the
// table finds inside it (the half-open rule: a cell on a min edge is in,
// one on a max edge is out). The boxes are seeded, the zero box, the whole
// plane, zero-area boxes and boxes whose edges lie on cell coordinates.
func TestCellInventoryInBoxMatchesScan(t *testing.T) {
	g := gen.New(gen.DefaultConfig(0.004))
	ci, err := NewCellInventory(g.CellTable())
	if err != nil {
		t.Fatal(err)
	}
	tab := g.CellTable()
	idIdx, xIdx, yIdx := tab.Schema.FieldIndex(telco.AttrCellID), tab.Schema.FieldIndex("x_km"), tab.Schema.FieldIndex("y_km")
	pts := map[int64]geo.Point{}
	var cells []geo.Point
	for _, r := range tab.Rows {
		pt := geo.Point{X: r[xIdx].Float64(), Y: r[yIdx].Float64()}
		pts[r[idIdx].Int64()] = pt
		cells = append(cells, pt)
	}
	if got := len(ci.Points()); got != len(pts) || got < 100 {
		t.Fatalf("inventory holds %d cells, the table %d", got, len(pts))
	}
	rng := rand.New(rand.NewSource(33))
	region := g.Config().Region
	boxes := []geo.Rect{{}, geo.NewRect(-1e9, -1e9, 1e9, 1e9), region}
	for i := 0; i < 40; i++ {
		boxes = append(boxes, geo.NewRect(rng.Float64()*region.MaxX, rng.Float64()*region.MaxY,
			rng.Float64()*region.MaxX, rng.Float64()*region.MaxY))
		a, b := cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]
		boxes = append(boxes,
			geo.NewRect(a.X, a.Y, b.X, b.Y),           // edges on two cells
			geo.NewRect(a.X, a.Y, a.X+1e-9, a.Y+1e-9), // a sliver holding a
			geo.NewRect(a.X, a.Y, a.X, b.Y),           // zero width
			geo.NewRect(a.X, a.Y, b.X, a.Y))           // zero height
	}
	nonEmpty := 0
	for _, box := range boxes {
		var want []int64
		for id, pt := range pts {
			if box.Contains(pt) {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		got := ci.inBox(box)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("box %v: inventory answers %d cells, the scan %d (or other ids)", box, len(got), len(want))
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(boxes)/4 {
		t.Fatalf("only %d of %d boxes hold a cell: the check is vacuous", nonEmpty, len(boxes))
	}
	// The zero box is "everywhere" to a query: it builds no membership set.
	if ids, set := ci.boxSet(geo.Rect{}); ids != nil || set != nil {
		t.Errorf("the zero box restricts to %d cells", len(ids))
	}
}
