package harness

import "sort"

// Span is one timed interval at a layer boundary. The traced run records
// spans from its own decorators around the calls into each module; Parent
// is the index of the span that caused this one (-1 for a root), and all
// spans of one request share the request's root.
type Span struct {
	Name       string
	Parent     int
	Start, End int64 // nanoseconds on one clock
}

// SelfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice,
// so parallel children cannot push a parent's self time below zero).
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to [lo, hi].
func covered(spans []Span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]int64 {
	out := make(map[string]int64)
	for i, d := range SelfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}
