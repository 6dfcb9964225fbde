package geo

// Item is a spatial payload stored in a QuadTree: a point plus an opaque
// integer handle (e.g. a cell ID).
type Item struct {
	Pt Point
	ID int64
}

// QuadTree is a point quad-tree answering box queries without a full scan.
// The cell inventory (the per-leaf spatial index SPATE discusses in §V-A)
// and SHAHED's store use it to find the cells inside a query box.
type QuadTree struct {
	bounds Rect
	root   *qtNode
}

type qtNode struct {
	bounds Rect
	items  []Item // leaf payload; nil once split
	kids   *[4]*qtNode
}

// nodeCapacity is the leaf split threshold.
const nodeCapacity = 16

// NewQuadTree builds an empty tree over the given bounds.
func NewQuadTree(bounds Rect) *QuadTree {
	return &QuadTree{bounds: bounds, root: &qtNode{bounds: bounds}}
}

// Insert adds an item. Items outside the tree bounds are rejected.
func (t *QuadTree) Insert(it Item) bool {
	if !t.bounds.Contains(it.Pt) {
		return false
	}
	t.root.insert(it)
	return true
}

// minExtent stops subdividing once nodes are ~1 meter across, preventing
// unbounded recursion on coincident points.
const minExtent = 1e-3

func (n *qtNode) insert(it Item) {
	if n.kids == nil {
		ext := n.bounds.MaxX - n.bounds.MinX
		if len(n.items) < nodeCapacity || ext <= minExtent {
			n.items = append(n.items, it)
			return
		}
		n.split()
	}
	n.child(it.Pt).insert(it)
}

func (n *qtNode) split() {
	qs := n.bounds.quadrants()
	kids := &[4]*qtNode{}
	for i := range kids {
		kids[i] = &qtNode{bounds: qs[i]}
	}
	n.kids = kids
	items := n.items
	n.items = nil
	for _, it := range items {
		n.child(it.Pt).insert(it)
	}
}

func (n *qtNode) child(p Point) *qtNode {
	for _, k := range n.kids {
		if k.bounds.Contains(p) {
			return k
		}
	}
	// Floating-point edge cases: fall back to the last quadrant.
	return n.kids[3]
}

// Query appends every item inside box to dst and returns it.
func (t *QuadTree) Query(box Rect, dst []Item) []Item {
	return t.root.query(box, dst)
}

func (n *qtNode) query(box Rect, dst []Item) []Item {
	if !n.bounds.Intersects(box) {
		return dst
	}
	if n.kids == nil {
		for _, it := range n.items {
			if box.Contains(it.Pt) {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for _, k := range n.kids {
		dst = k.query(box, dst)
	}
	return dst
}
