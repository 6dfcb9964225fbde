// Package geo provides the planar spatial primitives used throughout the
// SPATE reproduction: points, rectangles and the point quad-tree that
// answers which cells a box holds.
//
// Telco records are not point data in the traditional sense — each record is
// linked to a cell ID covering an area of hundreds of meters (paper §II-B).
// Coordinates here are kilometers in a local planar frame covering the
// trace's ~6000 km^2 service region.
package geo

import "fmt"

// Point is a planar location in kilometers.
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned rectangle, half-open on the max edges:
// a point p is inside when MinX <= p.X < MaxX and MinY <= p.Y < MaxY.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect builds a rectangle, normalizing swapped corners.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// Contains reports whether p lies inside the half-open rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Intersects reports whether the two rectangles overlap with positive area.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX < s.MaxX && s.MinX < r.MaxX && r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Expand grows the rectangle to include p (treating the rect as closed).
func (r Rect) Expand(p Point) Rect {
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.X >= r.MaxX {
		r.MaxX = nextAfter(p.X)
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.Y >= r.MaxY {
		r.MaxY = nextAfter(p.Y)
	}
	return r
}

// nextAfter nudges v up by a relative epsilon so a point on the max edge
// lands strictly inside the half-open rect.
func nextAfter(v float64) float64 {
	const eps = 1e-9
	if v == 0 {
		return eps
	}
	if v > 0 {
		return v * (1 + eps)
	}
	return v * (1 - eps)
}

// String renders the rect for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f)x[%.3f,%.3f)", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// quadrants splits the rectangle into its four quadrants
// (NW, NE, SW, SE order).
func (r Rect) quadrants() [4]Rect {
	cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
	return [4]Rect{
		{MinX: r.MinX, MinY: cy, MaxX: cx, MaxY: r.MaxY},
		{MinX: cx, MinY: cy, MaxX: r.MaxX, MaxY: r.MaxY},
		{MinX: r.MinX, MinY: r.MinY, MaxX: cx, MaxY: cy},
		{MinX: cx, MinY: r.MinY, MaxX: r.MaxX, MaxY: cy},
	}
}
