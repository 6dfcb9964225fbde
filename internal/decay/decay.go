// Package decay implements SPATE's decaying module (paper §V-C): the
// progressive loss of detail in information as data ages, realized as a
// "data fungus" (Kersten, CIDR 2015) that prunes leaf and non-leaf entries
// of the spatio-temporal index in a sliding-window manner.
//
// A Policy expresses the operator-chosen retention horizons: raw snapshot
// data survives KeepRaw; after that only the day/month/year highlight
// summaries remain, each with its own horizon, until even the yearly
// summary disappears. The schema of the database never decays.
//
// Two fungi are provided:
//
//   - EvictOldestIndividuals — the paper's choice: each leaf decays
//     individually as soon as it ages past the horizon, because "more
//     recent signals contain more important operational value".
//   - EvictGroupedIndividuals — the alternative Kersten names: eviction
//     happens in whole-period groups (a day's 48 snapshots decay together
//     once the entire day has aged out), trading retention granularity for
//     fewer, larger purges.
package decay

import (
	"fmt"
	"time"

	"spate/internal/index"
)

// Policy sets retention horizons per resolution. A zero duration means
// "retain forever" at that resolution.
type Policy struct {
	// KeepRaw is how long full-resolution compressed snapshot data remains
	// on the DFS (the paper's example: one year of full resolution).
	KeepRaw time.Duration
	// KeepEpochNodes is how long decayed epoch leaves remain as index
	// entries before the whole day subtree collapses into its summary.
	KeepEpochNodes time.Duration
	// KeepDayNodes is how long day nodes (and their summaries) survive
	// before collapsing into month summaries.
	KeepDayNodes time.Duration
	// KeepMonthNodes is how long month nodes survive before collapsing
	// into year summaries.
	KeepMonthNodes time.Duration
}

// Validate checks that horizons are monotonically non-decreasing where set.
func (p Policy) Validate() error {
	prev := time.Duration(0)
	for _, h := range []struct {
		name string
		d    time.Duration
	}{
		{"KeepRaw", p.KeepRaw},
		{"KeepEpochNodes", p.KeepEpochNodes},
		{"KeepDayNodes", p.KeepDayNodes},
		{"KeepMonthNodes", p.KeepMonthNodes},
	} {
		if h.d == 0 {
			continue
		}
		if h.d < prev {
			return fmt.Errorf("decay: %s=%v shorter than a finer horizon %v", h.name, h.d, prev)
		}
		prev = h.d
	}
	return nil
}

// Action is what an eviction does to its node.
type Action int

// Actions, in increasing severity.
const (
	// EvictLeafData deletes a leaf's compressed data from the DFS and marks
	// the leaf decayed, dropping its kept summary encoding with the data;
	// the index entry survives.
	EvictLeafData Action = iota
	// PruneChildren removes a node's entire child subtree, leaving only
	// the node's own summary.
	PruneChildren
)

// Eviction is one planned decay step.
type Eviction struct {
	Action Action
	Node   *index.Node
	Parent *index.Node // set for PruneChildren bookkeeping (may be nil)
}

// Fungus plans which index entries decay at a given instant.
type Fungus interface {
	// Name identifies the fungus in logs and benchmarks.
	Name() string
	// Plan returns the evictions due at time now under policy p.
	Plan(now time.Time, t *index.Tree, p Policy) []Eviction
}

// aged reports whether the node's period ended more than horizon ago.
// A zero horizon never ages.
func aged(now time.Time, n *index.Node, horizon time.Duration) bool {
	if horizon == 0 {
		return false
	}
	return n.Period.To.Add(horizon).Before(now) || n.Period.To.Add(horizon).Equal(now)
}

// EvictOldestIndividuals is the paper's data fungus: it walks the index
// oldest-first and evicts each aged entry individually.
type EvictOldestIndividuals struct{}

// Name implements Fungus.
func (EvictOldestIndividuals) Name() string { return "evict-oldest-individuals" }

// Plan implements Fungus.
func (EvictOldestIndividuals) Plan(now time.Time, t *index.Tree, p Policy) []Eviction {
	var evs []Eviction
	// Collapse aged months into their year summary.
	for _, m := range t.NodesAtLevel(index.LevelMonth) {
		if len(m.Children) > 0 && aged(now, m, p.KeepMonthNodes) {
			evs = append(evs, Eviction{Action: PruneChildren, Node: m})
		}
	}
	// Collapse aged days into their summary.
	for _, d := range t.NodesAtLevel(index.LevelDay) {
		if len(d.Children) > 0 && (aged(now, d, p.KeepDayNodes) || aged(now, d, p.KeepEpochNodes)) {
			// KeepEpochNodes collapses the day's epoch children;
			// KeepDayNodes is handled at the month level above, so here a
			// day prunes its leaves once either horizon passes.
			evs = append(evs, Eviction{Action: PruneChildren, Node: d})
		}
	}
	// Evict raw data of aged individual leaves.
	for _, l := range t.NodesAtLevel(index.LevelEpoch) {
		if !l.Decayed && aged(now, l, p.KeepRaw) {
			evs = append(evs, Eviction{Action: EvictLeafData, Node: l})
		}
	}
	return dedupe(evs)
}

// EvictGroupedIndividuals evicts raw data in whole-day groups: a day's
// snapshots decay together only when the *youngest* of them has aged out.
type EvictGroupedIndividuals struct{}

// Name implements Fungus.
func (EvictGroupedIndividuals) Name() string { return "evict-grouped-individuals" }

// Plan implements Fungus.
func (EvictGroupedIndividuals) Plan(now time.Time, t *index.Tree, p Policy) []Eviction {
	var evs []Eviction
	for _, m := range t.NodesAtLevel(index.LevelMonth) {
		if len(m.Children) > 0 && aged(now, m, p.KeepMonthNodes) {
			evs = append(evs, Eviction{Action: PruneChildren, Node: m})
		}
	}
	for _, d := range t.NodesAtLevel(index.LevelDay) {
		if len(d.Children) == 0 {
			continue
		}
		if aged(now, d, p.KeepDayNodes) || aged(now, d, p.KeepEpochNodes) {
			evs = append(evs, Eviction{Action: PruneChildren, Node: d})
			continue
		}
		// Group rule: the day's raw data goes only when the whole day aged.
		if aged(now, d, p.KeepRaw) {
			for _, l := range d.Children {
				if l.IsLeaf() && !l.Decayed {
					evs = append(evs, Eviction{Action: EvictLeafData, Node: l})
				}
			}
		}
	}
	return dedupe(evs)
}

// dedupe removes leaf evictions already covered by a subtree prune.
func dedupe(evs []Eviction) []Eviction {
	pruned := make(map[*index.Node]bool)
	for _, e := range evs {
		if e.Action == PruneChildren {
			for _, c := range e.Node.Children {
				pruned[c] = true
				for _, cc := range c.Children {
					pruned[cc] = true
				}
			}
		}
	}
	out := evs[:0]
	for _, e := range evs {
		if e.Action == EvictLeafData && pruned[e.Node] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// DeleteFunc removes one stored object (a DFS path) during Apply.
type DeleteFunc func(path string) error

// Result summarizes an Apply run.
type Result struct {
	LeavesDecayed int
	NodesPruned   int
	BytesFreed    int64
	RefsDeleted   int
}

// Apply executes planned evictions against the tree, deleting stored data
// through del. The tree's leaf count is refreshed when structure changes.
func Apply(t *index.Tree, evs []Eviction, del DeleteFunc) (Result, error) {
	var res Result
	structural := false
	for _, e := range evs {
		switch e.Action {
		case EvictLeafData:
			n := e.Node
			if n.Decayed {
				continue
			}
			for _, ref := range n.DataRefs {
				if err := del(ref); err != nil {
					return res, fmt.Errorf("decay: evict %s: %w", ref, err)
				}
				res.RefsDeleted++
			}
			res.BytesFreed += n.DataBytes
			n.DataRefs = nil
			n.KeptSummary = nil // a decayed leaf answers from its day's summary
			n.Decayed = true
			res.LeavesDecayed++
		case PruneChildren:
			n := e.Node
			// Delete any raw data still referenced underneath.
			var gather func(*index.Node) error
			gather = func(c *index.Node) error {
				if c.IsLeaf() {
					if !c.Decayed {
						for _, ref := range c.DataRefs {
							if err := del(ref); err != nil {
								return fmt.Errorf("decay: prune %s: %w", ref, err)
							}
							res.RefsDeleted++
						}
						res.BytesFreed += c.DataBytes
						res.LeavesDecayed++
					}
					return nil
				}
				for _, cc := range c.Children {
					if err := gather(cc); err != nil {
						return err
					}
				}
				return nil
			}
			for _, c := range n.Children {
				if err := gather(c); err != nil {
					return res, err
				}
			}
			res.NodesPruned += len(n.Children)
			n.Children = nil
			structural = true
		}
	}
	if structural {
		t.RecountLeaves()
	}
	return res, nil
}
