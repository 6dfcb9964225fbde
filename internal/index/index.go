// Package index implements SPATE's multi-resolution spatio-temporal index
// (paper §V-A): a temporal tree with four resolutions — year, month, day
// and 30-minute epoch — whose leaves reference compressed snapshot files on
// the distributed file system and whose internal nodes carry highlight
// summaries. New snapshots are incorporated by the Incremence module:
// the tree only ever grows along its right-most path, with dummy day/month/
// year nodes created on period rollover.
package index

import (
	"fmt"
	"time"

	"spate/internal/highlights"
	"spate/internal/telco"
)

// Level is a temporal resolution of the index.
type Level int

// Levels from coarsest to finest.
const (
	LevelRoot Level = iota
	LevelYear
	LevelMonth
	LevelDay
	LevelEpoch
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelRoot:
		return "root"
	case LevelYear:
		return "year"
	case LevelMonth:
		return "month"
	case LevelDay:
		return "day"
	case LevelEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Node is one entry of the temporal index. Epoch-level nodes are leaves
// referencing compressed snapshot data; internal nodes aggregate children
// and, once their period completes, carry a highlight summary.
type Node struct {
	Level    Level
	Period   telco.TimeRange
	Children []*Node

	// Summary holds the node's highlights. For internal nodes it is set
	// when the period completes (sealed); leaves carry their snapshot's
	// summary immediately, until their day seals.
	Summary *highlights.Summary
	// KeptSummary is a leaf's summary once its day has sealed: the
	// exact-size encoding (highlights.Summary.Encode), held in memory only,
	// which a sub-day window decodes instead of rebuilding the summary from
	// the leaf's data. It is nil on a leaf of an open day, on a decayed
	// leaf, and on a leaf of a reopened store until its first rebuild.
	KeptSummary []byte

	// Leaf payload (Level == LevelEpoch).
	Epoch     telco.Epoch
	DataRefs  map[string]string // table name -> DFS path of compressed data
	DataBytes int64             // compressed bytes on the DFS (logical)
	RawBytes  int64             // pre-compression bytes, for accounting
	Decayed   bool              // raw data evicted by the decaying module
}

// IsLeaf reports whether the node is an epoch leaf.
func (n *Node) IsLeaf() bool { return n.Level == LevelEpoch }

// rightmost returns the last child, or nil.
func (n *Node) rightmost() *Node {
	if len(n.Children) == 0 {
		return nil
	}
	return n.Children[len(n.Children)-1]
}

// Tree is the multi-resolution temporal index.
type Tree struct {
	root      *Node
	lastEpoch telco.Epoch
	hasLeaf   bool
	leafCount int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &Node{Level: LevelRoot}}
}

// Root returns the root node. The root's period spans all ingested data.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of epoch leaves currently in the tree.
func (t *Tree) Len() int { return t.leafCount }

// LastEpoch returns the most recently appended epoch and whether any leaf
// exists.
func (t *Tree) LastEpoch() (telco.Epoch, bool) { return t.lastEpoch, t.hasLeaf }

// periodOf computes the covering period of level l for a time instant.
func periodOf(l Level, at time.Time) telco.TimeRange {
	at = at.UTC()
	switch l {
	case LevelYear:
		from := time.Date(at.Year(), 1, 1, 0, 0, 0, 0, time.UTC)
		return telco.TimeRange{From: from, To: from.AddDate(1, 0, 0)}
	case LevelMonth:
		from := time.Date(at.Year(), at.Month(), 1, 0, 0, 0, 0, time.UTC)
		return telco.TimeRange{From: from, To: from.AddDate(0, 1, 0)}
	case LevelDay:
		from := time.Date(at.Year(), at.Month(), at.Day(), 0, 0, 0, 0, time.UTC)
		return telco.TimeRange{From: from, To: from.AddDate(0, 0, 1)}
	default:
		e := telco.EpochOf(at)
		return telco.TimeRange{From: e.Start(), To: e.End()}
	}
}

// Append incorporates the snapshot of epoch e into the index on the
// right-most path (the Incremence module). Snapshots must arrive in
// strictly increasing epoch order. It returns the new leaf together with
// the internal nodes whose period was completed by this arrival — newest
// first day, then month, then year — so the caller can compute and store
// their highlights.
func (t *Tree) Append(e telco.Epoch, refs map[string]string, dataBytes, rawBytes int64) (leaf *Node, completed []*Node, err error) {
	if t.hasLeaf && e <= t.lastEpoch {
		return nil, nil, fmt.Errorf("index: epoch %v arrives out of order (last %v)", e, t.lastEpoch)
	}
	at := e.Start()

	year := t.root.rightmost()
	if year == nil || !year.Period.Contains(at) {
		if year != nil {
			completed = append(completed, t.sealSubtree(year)...)
		}
		year = &Node{Level: LevelYear, Period: periodOf(LevelYear, at)}
		t.root.Children = append(t.root.Children, year)
	}
	month := year.rightmost()
	if month == nil || !month.Period.Contains(at) {
		if month != nil {
			completed = append(completed, t.sealSubtree(month)...)
		}
		month = &Node{Level: LevelMonth, Period: periodOf(LevelMonth, at)}
		year.Children = append(year.Children, month)
	}
	day := month.rightmost()
	if day == nil || !day.Period.Contains(at) {
		if day != nil {
			completed = append(completed, t.sealSubtree(day)...)
		}
		day = &Node{Level: LevelDay, Period: periodOf(LevelDay, at)}
		month.Children = append(month.Children, day)
	}

	leaf = &Node{
		Level:     LevelEpoch,
		Period:    telco.TimeRange{From: e.Start(), To: e.End()},
		Epoch:     e,
		DataRefs:  refs,
		DataBytes: dataBytes,
		RawBytes:  rawBytes,
	}
	day.Children = append(day.Children, leaf)
	t.lastEpoch = e
	t.hasLeaf = true
	t.leafCount++

	// Extend the root's covering period.
	if t.root.Period.From.IsZero() {
		t.root.Period.From = leaf.Period.From
	}
	t.root.Period.To = leaf.Period.To

	// Order completions finest-first (day before month before year) so
	// summary rollups can build on each other.
	reverse(completed)
	return leaf, completed, nil
}

// sealSubtree returns the nodes of a just-closed subtree that still need
// sealing, deepest first is NOT guaranteed here; Append reverses to get
// day < month < year ordering.
func (t *Tree) sealSubtree(n *Node) []*Node {
	var out []*Node
	out = append(out, n)
	if r := n.rightmost(); r != nil && !r.IsLeaf() {
		out = append(out, t.sealSubtree(r)...)
	}
	return out
}

func reverse(ns []*Node) {
	for i, j := 0, len(ns)-1; i < j; i, j = i+1, j-1 {
		ns[i], ns[j] = ns[j], ns[i]
	}
}

// EnsurePeriod creates (if absent) the right-most-path node of level l
// whose period contains at, materializing missing ancestors — the recovery
// hook that resurrects summary-only nodes for subtrees the decaying module
// pruned. Like Append, it only ever grows the right-most path, so calls
// must arrive in temporal order and precede newer appends.
func (t *Tree) EnsurePeriod(l Level, at time.Time) (*Node, error) {
	if l != LevelYear && l != LevelMonth && l != LevelDay {
		return nil, fmt.Errorf("index: EnsurePeriod at level %v", l)
	}
	n := t.root
	for _, lv := range []Level{LevelYear, LevelMonth, LevelDay} {
		p := periodOf(lv, at)
		r := n.rightmost()
		if r == nil || !r.Period.Contains(at) {
			if r != nil && !r.Period.From.Before(p.From) {
				return nil, fmt.Errorf("index: period %v at %v arrives out of order", lv, at)
			}
			r = &Node{Level: lv, Period: p}
			n.Children = append(n.Children, r)
			if t.root.Period.From.IsZero() || p.From.Before(t.root.Period.From) {
				t.root.Period.From = p.From
			}
			if p.To.After(t.root.Period.To) {
				t.root.Period.To = p.To
			}
		}
		if lv == l {
			return r, nil
		}
		n = r
	}
	return nil, fmt.Errorf("index: unreachable level %v", l)
}

// FinishIngest returns every still-unsealed internal node on the
// right-most path (deepest first), for callers that want to finalize
// summaries when a trace ends mid-period.
func (t *Tree) FinishIngest() []*Node {
	var out []*Node
	n := t.root
	for {
		r := n.rightmost()
		if r == nil || r.IsLeaf() {
			break
		}
		out = append(out, r)
		n = r
	}
	reverse(out)
	return out
}

// FindCovering returns the deepest node whose period completely covers w —
// the paper's query entry point ("the index is accessed to find the
// temporal node whose period completely covers w"). The root is returned
// when no year covers w; nil when the tree is empty.
func (t *Tree) FindCovering(w telco.TimeRange) *Node {
	if !t.hasLeaf {
		return nil
	}
	n := t.root
	for {
		var next *Node
		for _, c := range n.Children {
			if c.Period.Covers(w) {
				next = c
				break
			}
		}
		if next == nil {
			return n
		}
		n = next
	}
}

// LeavesIn appends every leaf whose period overlaps w, in temporal order.
func (t *Tree) LeavesIn(w telco.TimeRange, dst []*Node) []*Node {
	return leavesIn(t.root, w, dst)
}

func leavesIn(n *Node, w telco.TimeRange, dst []*Node) []*Node {
	if n.IsLeaf() {
		if n.Period.Overlaps(w) {
			dst = append(dst, n)
		}
		return dst
	}
	for _, c := range n.Children {
		if n.Level == LevelRoot || c.Period.Overlaps(w) {
			dst = leavesIn(c, w, dst)
		}
	}
	return dst
}

// Walk visits every node pre-order until fn returns false.
func (t *Tree) Walk(fn func(*Node) bool) { walk(t.root, fn) }

func walk(n *Node, fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !walk(c, fn) {
			return false
		}
	}
	return true
}

// NodesAtLevel collects nodes of one level in temporal order.
func (t *Tree) NodesAtLevel(l Level) []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool {
		if n.Level == l {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Stats summarizes the tree for storage accounting.
type Stats struct {
	Leaves        int
	DecayedLeaves int
	DataBytes     int64 // compressed leaf bytes still held
	RawBytes      int64 // original bytes represented (including decayed)
	SummaryBytes  int64 // estimated highlight summary footprint (index S_i)
	KeptBytes     int64 // sealed leaves' kept summary encodings, in memory only
	Nodes         int
}

// Stats walks the tree and aggregates storage accounting.
func (t *Tree) Stats() Stats {
	var s Stats
	t.Walk(func(n *Node) bool {
		s.Nodes++
		// Leaf summaries are ephemeral ingestion state, not persisted
		// access-method information; only internal-node summaries count
		// toward the index footprint S_i.
		if n.Summary != nil && !n.IsLeaf() {
			s.SummaryBytes += n.Summary.SizeHint()
		}
		if n.IsLeaf() {
			s.Leaves++
			s.KeptBytes += int64(len(n.KeptSummary))
			if n.Decayed {
				s.DecayedLeaves++
			} else {
				s.DataBytes += n.DataBytes
			}
			s.RawBytes += n.RawBytes
		}
		return true
	})
	return s
}

// RemoveChild detaches child c from n (used by the decaying module when
// pruning aged subtrees). It reports whether the child was found.
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// RecountLeaves refreshes the cached leaf count after structural pruning.
func (t *Tree) RecountLeaves() {
	n := 0
	t.Walk(func(nd *Node) bool {
		if nd.IsLeaf() {
			n++
		}
		return true
	})
	t.leafCount = n
}
