package geo

import (
	"math/rand"
	"slices"
	"testing"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(10, 20, 0, 5) // swapped corners
	want := Rect{MinX: 0, MinY: 5, MaxX: 10, MaxY: 20}
	if r != want {
		t.Fatalf("NewRect normalize: got %v, want %v", r, want)
	}
	if !r.Contains(Point{0, 5}) {
		t.Error("min corner must be inside (half-open)")
	}
	if r.Contains(Point{10, 20}) {
		t.Error("max corner must be outside (half-open)")
	}
	if r.Contains(Point{10, 10}) || r.Contains(Point{5, 20}) {
		t.Error("max edges must be outside (half-open)")
	}
}

func TestRectIntersects(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	tests := []struct {
		s         Rect
		intersect bool
	}{
		{NewRect(1, 1, 9, 9), true},
		{NewRect(0, 0, 10, 10), true},
		{NewRect(-1, 0, 10, 10), true},
		{NewRect(10, 10, 20, 20), false}, // touching corner
		{NewRect(10, 0, 20, 10), false},  // touching edge
		{NewRect(5, -5, 15, 5), true},
		{NewRect(20, 20, 30, 30), false},
	}
	for _, tc := range tests {
		if got := r.Intersects(tc.s); got != tc.intersect {
			t.Errorf("Intersects(%v) = %v, want %v", tc.s, got, tc.intersect)
		}
		if got := tc.s.Intersects(r); got != tc.intersect {
			t.Errorf("%v.Intersects(r) = %v, want %v", tc.s, got, tc.intersect)
		}
	}
}

func TestRectExpand(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	r = r.Expand(Point{5, -3})
	if !r.Contains(Point{5, -3}) {
		t.Errorf("expanded rect %v does not contain point", r)
	}
	if !r.Contains(Point{0.5, 0.5}) {
		t.Error("expansion lost original coverage")
	}
}

func TestQuadrantsPartition(t *testing.T) {
	r := NewRect(0, 0, 8, 8)
	qs := r.quadrants()
	// Every point of r, on the quadrants' shared edges too, belongs to
	// exactly one quadrant; no point outside r belongs to any.
	rng := rand.New(rand.NewSource(1))
	pts := []Point{{0, 0}, {4, 4}, {4, 0}, {0, 4}, {7.999, 7.999}, {8, 8}, {-1, 4}, {4, 8}}
	for i := 0; i < 200; i++ {
		pts = append(pts, Point{rng.Float64() * 8, rng.Float64() * 8})
	}
	for _, p := range pts {
		n := 0
		for _, q := range qs {
			if q.Contains(p) {
				n++
			}
		}
		if want := map[bool]int{true: 1, false: 0}[r.Contains(p)]; n != want {
			t.Fatalf("point %v in %d quadrants, want %d", p, n, want)
		}
	}
}

func randomItems(n int, seed int64, bounds Rect) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Pt: Point{
				bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
				bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
			},
			ID: int64(i),
		}
	}
	return items
}

// ids returns the sorted IDs of items.
func ids(items []Item) []int64 {
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	slices.Sort(out)
	return out
}

// TestQuadTreeQueryMatchesLinearScan: every box query returns exactly the
// items a linear scan finds inside the half-open box — seeded boxes, boxes
// whose edges pass through item coordinates (an item on a min edge is in,
// one on a max edge is out), a zero-area box, the tree's whole bounds and
// boxes reaching past them.
func TestQuadTreeQueryMatchesLinearScan(t *testing.T) {
	bounds := NewRect(0, 0, 100, 100)
	items := randomItems(2000, 42, bounds)
	qt := NewQuadTree(bounds)
	for _, it := range items {
		if !qt.Insert(it) {
			t.Fatalf("Insert(%v) rejected", it)
		}
	}
	rng := rand.New(rand.NewSource(7))
	boxes := []Rect{bounds, NewRect(-50, -50, 150, 150), NewRect(50, 50, 50, 60), {}}
	for trial := 0; trial < 50; trial++ {
		boxes = append(boxes, NewRect(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100))
		a, b := items[rng.Intn(len(items))].Pt, items[rng.Intn(len(items))].Pt
		boxes = append(boxes, NewRect(a.X, a.Y, b.X, b.Y), NewRect(a.X, a.Y, a.X, b.Y))
	}
	for _, box := range boxes {
		var want []Item
		for _, it := range items {
			if box.Contains(it.Pt) {
				want = append(want, it)
			}
		}
		if got := ids(qt.Query(box, nil)); !slices.Equal(got, ids(want)) {
			t.Errorf("Query(%v): %d items, scan %d (or other ids)", box, len(got), len(want))
		}
	}
}

// TestQuadTreeFullCoverFastPath: a box covering the tree's whole bounds
// returns every stored item, from leaves several levels down.
func TestQuadTreeFullCoverFastPath(t *testing.T) {
	bounds := NewRect(0, 0, 64, 64)
	qt := NewQuadTree(bounds)
	items := randomItems(500, 3, bounds)
	for _, it := range items {
		qt.Insert(it)
	}
	if d := qt.root.depth(); d < 3 {
		t.Fatalf("depth %d: 500 items should split the root at least twice", d)
	}
	if got := ids(qt.Query(bounds, nil)); !slices.Equal(got, ids(items)) {
		t.Errorf("full-cover query: %d items, want %d", len(got), len(items))
	}
}

func TestQuadTreeRejectsOutside(t *testing.T) {
	qt := NewQuadTree(NewRect(0, 0, 1, 1))
	for _, p := range []Point{{2, 2}, {1, 0.5}, {0.5, 1}, {-0.1, 0.5}} {
		if qt.Insert(Item{Pt: p}) {
			t.Errorf("Insert(%v) outside bounds accepted", p)
		}
	}
	if got := qt.Query(NewRect(-9, -9, 9, 9), nil); len(got) != 0 {
		t.Errorf("rejected inserts stored %d items", len(got))
	}
}

// depth returns the maximum depth of the subtree under n (a leaf is 1).
func (n *qtNode) depth() int {
	if n.kids == nil {
		return 1
	}
	d := 0
	for _, k := range n.kids {
		d = max(d, k.depth())
	}
	return d + 1
}

func TestQuadTreeCoincidentPoints(t *testing.T) {
	// Many identical points must not recurse forever: splitting stops once
	// a node is minExtent across.
	qt := NewQuadTree(NewRect(0, 0, 1, 1))
	for i := 0; i < 100; i++ {
		qt.Insert(Item{Pt: Point{0.5, 0.5}, ID: int64(i)})
	}
	if got := qt.Query(NewRect(0.4, 0.4, 0.6, 0.6), nil); len(got) != 100 {
		t.Errorf("coincident query = %d items, want 100", len(got))
	}
	// 1 km halved 10 times is under a meter: at most 11 levels.
	if d := qt.root.depth(); d > 11 {
		t.Errorf("depth %d too large for coincident points", d)
	}
}
